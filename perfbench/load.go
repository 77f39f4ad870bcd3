package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"percival/internal/benchsuite"
	"percival/internal/core"
	"percival/internal/imaging"
	"percival/internal/squeezenet"
	"percival/internal/synth"
)

// poissonSchedule returns the send offsets of an open loop with
// exponentially distributed gaps at rate requests per second, covering
// seconds.
func poissonSchedule(rng *rand.Rand, rate, seconds float64) []time.Duration {
	var out []time.Duration
	for t := rng.ExpFloat64() / rate; t < seconds; t += rng.ExpFloat64() / rate {
		out = append(out, time.Duration(t*float64(time.Second)))
	}
	return out
}

// sent is one request of a load phase, timed from the loop's start.
type sent struct {
	due, start, done time.Duration
	score            float64
	status           string
	err              error
}

func (s sent) latencyMS() float64 { return float64(s.done-s.due) / 1e6 }
func (s sent) delayMS() float64   { return float64(s.start-s.due) / 1e6 }

// openLoop issues request i at sched[i] after the loop starts, from conns
// workers. A request due while every worker is busy waits for one; the
// wait counts in its latency and in the generator's send delay. It
// returns the requests and the time the loop started.
func openLoop(sched []time.Duration, conns int, do func(i int) (float64, string, error)) ([]sent, time.Time) {
	out := make([]sent, len(sched))
	due := make(chan int, len(sched)) // sized to the number of sends
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range due {
				s := &out[i]
				s.due = sched[i]
				s.start = time.Since(start)
				s.score, s.status, s.err = do(i)
				s.done = time.Since(start)
			}
		}()
	}
	for i, at := range sched {
		if d := time.Until(start.Add(at)); d > 0 {
			time.Sleep(d)
		}
		due <- i
	}
	close(due)
	wg.Wait()
	return out, start
}

// loadSummary condenses a phase: latency from the scheduled send time,
// corrected for steal and as measured, and how late the generator ran.
type loadSummary struct {
	N         int     `json:"n"`
	Failed    int     `json:"failed"`
	P50MS     float64 `json:"p50_ms"`
	P90MS     float64 `json:"p90_ms"`
	P99MS     float64 `json:"p99_ms"`
	WallP50MS float64 `json:"wall_p50_ms"`
	WallP90MS float64 `json:"wall_p90_ms"`
	DelayP90  float64 `json:"send_delay_p90_ms"`
	DelayMax  float64 `json:"send_delay_max_ms"`
	// LatencyMS lists every request's corrected latency in send order.
	LatencyMS []float64 `json:"latency_ms"`
}

func summariseLoad(out []sent, start time.Time, clock *stealClock) loadSummary {
	lat := make([]float64, len(out))
	wall := make([]float64, len(out))
	delay := make([]float64, len(out))
	s := loadSummary{N: len(out)}
	for i, o := range out {
		wall[i] = o.latencyMS()
		lat[i] = clock.correct(wall[i], start.Add(o.due), start.Add(o.done))
		delay[i] = o.delayMS()
		s.DelayMax = max(s.DelayMax, delay[i])
		if o.err != nil {
			s.Failed++
		}
	}
	s.LatencyMS = lat
	s.P50MS = quantile(lat, 0.5)
	s.P90MS = quantile(lat, 0.9)
	s.P99MS = quantile(lat, 0.99)
	s.WallP50MS = quantile(wall, 0.5)
	s.WallP90MS = quantile(wall, 0.9)
	s.DelayP90 = quantile(delay, 0.9)
	return s
}

// classifyClient posts PNG creatives to a daemon's /classify over at most
// conns keep-alive connections.
type classifyClient struct {
	http *http.Client
	url  string
}

func newClassifyClient(url string, conns int) *classifyClient {
	return &classifyClient{
		http: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				IdleConnTimeout:     90 * time.Second,
			},
		},
		url: url,
	}
}

// classify returns the daemon's score and status for one creative. A
// non-200 answer (a 503 shed included) is an error.
func (c *classifyClient) classify(body []byte) (float64, string, error) {
	resp, err := c.http.Post(c.url, "image/png", bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, "", err
	}
	var v struct {
		Score  float64 `json:"score"`
		Status string  `json:"status"`
	}
	if resp.StatusCode != http.StatusOK {
		json.Unmarshal(data, &v) // a shed still carries its status
		return 0, v.Status, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return 0, "", fmt.Errorf("decode verdict %q: %w", data, err)
	}
	return v.Score, v.Status, nil
}

func (c *classifyClient) close() { c.http.CloseIdleConnections() }

// makeCreatives renders n crawl-style creatives from the seeded generator
// and encodes them as PNG, the daemon's request body. Decode and hash cost
// grow with a creative's pixel count, so the creatives cycle through the
// generator's ad and content sizes: every seed sends the same mix of
// sizes, and the seed picks the content and the order within each cycle.
func makeCreatives(seed int64, n int) ([][]byte, error) {
	g := synth.NewGenerator(seed, synth.CrawlStyle())
	rng := rand.New(rand.NewSource(seed))
	sizes := append(append([]synth.Size(nil), synth.AdSizes...), synth.ContentSizes...)
	drawn := map[synth.Size][]*imaging.Bitmap{}
	var cycle []synth.Size
	out := make([][]byte, n)
	for i := range out {
		if len(cycle) == 0 {
			cycle = append(cycle, sizes...)
			rng.Shuffle(len(cycle), func(a, b int) { cycle[a], cycle[b] = cycle[b], cycle[a] })
		}
		want := cycle[0]
		cycle = cycle[1:]
		for len(drawn[want]) == 0 {
			frame, _ := g.Sample()
			sz := synth.Size{W: frame.W, H: frame.H}
			drawn[sz] = append(drawn[sz], frame)
		}
		frame := drawn[want][0]
		drawn[want] = drawn[want][1:]
		data, err := imaging.Encode(frame, imaging.PNG)
		if err != nil {
			return nil, fmt.Errorf("encode creative %d: %w", i, err)
		}
		out[i] = data
	}
	return out, nil
}

// paperService builds the classifier the daemon serves with
// `-res 224 -pretrained`: the paper network, pretrained seed 1, threshold
// 0.5, memoization left to the serving layer.
func paperService() (*core.Percival, error) {
	return core.New(benchsuite.PaperNet(), squeezenet.PaperConfig(), core.Options{Threshold: 0.5, DisableCache: true})
}

// referenceScores decodes and classifies every creative in-process with
// core.Classify, on workers goroutines. With a tracer it also times the
// imaging calls the serving path makes on each decoded frame and one
// engine.Backend.InferBatchInto of it, whose score must equal the
// reference.
func referenceScores(svc *core.Percival, bodies [][]byte, workers int, tr *Tracer) ([]float64, error) {
	scores := make([]float64, len(bodies))
	errs := make([]error, len(bodies))
	eng := svc.Engine()
	next := make(chan int, len(bodies)) // sized to the number of sends
	for i := range bodies {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scaled := imaging.NewBitmap(svc.InputRes(), svc.InputRes())
			var one [1]float64
			for i := range next {
				req := int64(i)
				root := tr.begin("reference", 0, req)
				s := tr.begin("imaging.Decode", root.id, req)
				frame, _, err := imaging.Decode(bodies[i])
				tr.end(s)
				if err != nil {
					errs[i] = fmt.Errorf("decode creative %d: %w", i, err)
					continue
				}
				if tr != nil {
					s = tr.begin("imaging.ContentKey", root.id, req)
					imaging.ContentKey(frame)
					tr.end(s)
					s = tr.begin("imaging.ResizeBilinearInto", root.id, req)
					imaging.ResizeBilinearInto(frame, scaled)
					tr.end(s)
				}
				s = tr.begin("core.Classify", root.id, req)
				scores[i] = svc.Classify(frame)
				tr.end(s)
				if tr != nil {
					s = tr.begin("engine.InferBatchInto", root.id, req)
					eng.InferBatchInto([]*imaging.Bitmap{frame}, one[:])
					tr.end(s)
					if one[0] != scores[i] {
						errs[i] = fmt.Errorf("creative %d: engine scored %v, core.Classify %v", i, one[0], scores[i])
					}
				}
				tr.end(root)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return scores, nil
}
