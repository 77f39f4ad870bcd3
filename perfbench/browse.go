package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"percival/internal/benchsuite"
	"percival/internal/browser"
	"percival/internal/core"
	"percival/internal/imaging"
	"percival/internal/raster"
	"percival/internal/squeezenet"
	"percival/internal/webgen"
)

// browseSites is the corpus size of browse_sync: 24 sites, about a hundred
// pages.
const browseSites = 24

// setupRepeats is how often the in-process stack is built per run; setup_s
// is the median.
const setupRepeats = 11

// browseStack is the in-process stack of browse_sync over a seeded corpus:
// a Chromium-profile browser with PERCIVAL in synchronous mode, memoization
// off, so every image is classified in the raster path.
type browseStack struct {
	corpus *webgen.Corpus
	svc    *core.Percival
	tab    *browser.Browser
	pages  []string
}

// newCorpus generates the workload's input, the synthetic web, and the
// order the tab visits its pages in.
func newCorpus(seed int64) (*webgen.Corpus, []string) {
	corpus := webgen.NewCorpus(seed, browseSites)
	var pages []string
	for _, site := range corpus.Sites {
		pages = append(pages, site.PageURLs...)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(pages), func(i, j int) {
		pages[i], pages[j] = pages[j], pages[i]
	})
	return corpus, pages
}

// buildBrowse is the set-up: the paper network, PERCIVAL around it and the
// browser it is installed in.
func buildBrowse(corpus *webgen.Corpus, pages []string) (*browseStack, error) {
	svc, err := core.New(benchsuite.PaperNet(), squeezenet.PaperConfig(),
		core.Options{Mode: core.Synchronous, DisableCache: true})
	if err != nil {
		return nil, err
	}
	tab, err := browser.New(browser.Config{Profile: browser.Chromium(), Corpus: corpus, Inspector: svc})
	if err != nil {
		return nil, err
	}
	return &browseStack{corpus: corpus, svc: svc, tab: tab, pages: pages}, nil
}

// rendered is one page render and the block decision on each image.
type rendered struct {
	url        string
	start, end time.Time // around the Render call
	computeMS  float64
	inspects   int
	blocked    map[string]bool // image URL -> cleared by PERCIVAL
	err        error
}

// renderLoop is the closed loop of one tab: it renders the pages in order,
// one at a time, until seconds have passed. When hook is set, it runs
// ahead of each render with the page index and the function it returns
// runs right after.
func renderLoop(tab *browser.Browser, pages []string, seconds float64, hook func(i int) func()) []rendered {
	var out []rendered
	start := time.Now()
	for i := 0; time.Since(start).Seconds() < seconds; i++ {
		url := pages[i%len(pages)]
		done := func() {}
		if hook != nil {
			done = hook(i)
		}
		r := rendered{url: url, start: time.Now()}
		res, err := tab.Render(url, 0)
		r.end = time.Now()
		done()
		r.err = err
		if err == nil {
			r.computeMS = res.ComputeMS
			r.inspects = res.Stats.Inspects
			r.blocked = map[string]bool{}
			for _, img := range res.Images {
				if !img.BlockedByList {
					r.blocked[img.Spec.URL] = img.BlockedByInspector
				}
			}
		}
		out = append(out, r)
	}
	return out
}

// computeMS lists the pages' compute times, corrected for steal when
// clock is set.
func computeMS(rs []rendered, clock *stealClock) []float64 {
	ms := make([]float64, 0, len(rs))
	for _, r := range rs {
		switch {
		case r.err != nil:
		case clock != nil:
			ms = append(ms, clock.correct(r.computeMS, r.start, r.end))
		default:
			ms = append(ms, r.computeMS)
		}
	}
	return ms
}

// pageInspector wraps PERCIVAL's frame inspector for the traced run: each
// InspectFrame is a span under the Render span of the page in flight.
type pageInspector struct {
	svc *core.Percival
	tr  *Tracer

	mu   sync.Mutex
	page openSpan
}

func (p *pageInspector) setPage(s openSpan) {
	p.mu.Lock()
	p.page = s
	p.mu.Unlock()
}

func (p *pageInspector) InspectFrame(src string, frame *imaging.Bitmap) bool {
	p.mu.Lock()
	page := p.page
	p.mu.Unlock()
	s := p.tr.begin("core.InspectFrame", page.id, page.req)
	blocked := p.svc.InspectFrame(src, frame)
	p.tr.end(s)
	return blocked
}

var _ raster.FrameInspector = (*pageInspector)(nil)

func runBrowse(rc *runCtx) (*report, error) {
	rep := newReport()
	corpus, pages := newCorpus(rc.seed)
	var setups []float64
	var st *browseStack
	for k := 0; k < setupRepeats; k++ {
		st = nil
		runtime.GC() // every build starts from a collected heap
		if k == setupRepeats-1 {
			// the peak RSS covers one set-up and the run, not the repeats
			debug.FreeOSMemory()
			if err := resetPeakRSS(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		s, err := buildBrowse(corpus, pages)
		if err != nil {
			return nil, err
		}
		ready := time.Now()
		setups = append(setups, rc.clock.correct(ready.Sub(start).Seconds(), start, ready))
		st = s
	}
	rep.set("setup_s", quantile(setups, 0.5))
	rep.details["setup_s_each"] = setups

	// one untimed render fills the engine's arena before timing
	if _, err := st.tab.Render(st.pages[0], 0); err != nil {
		return nil, err
	}
	plain := renderLoop(st.tab, st.pages, rc.seconds, nil)
	ms := computeMS(plain, rc.clock)
	rep.set("latency_p50_ms", quantile(ms, 0.5))
	rep.set("latency_p90_ms", quantile(ms, 0.9))
	wall := computeMS(plain, nil)
	rep.details["pages"] = len(plain)
	rep.details["wall_p50_ms"] = quantile(wall, 0.5)
	rep.details["wall_p90_ms"] = quantile(wall, 0.9)
	rss, err := vmHWM(os.Getpid())
	if err != nil {
		return nil, err
	}
	rep.set("peak_rss_mb", rss)

	runs := [][]rendered{plain}
	var refTracer *Tracer
	if rc.trace {
		traced, err := tracedBrowse(rc, rep, st, ms)
		if err != nil {
			return nil, err
		}
		runs = append(runs, traced)
		refTracer = newTracer()
	}
	if err := checkBrowse(rep, st, runs, refTracer); err != nil {
		return nil, err
	}
	if rc.trace {
		sum := summarise(refTracer.Spans())
		rep.set("imaging.decode_ms", sum["imaging.Decode"].WallMS)
		rep.set("imaging.hash_ms", sum["imaging.ContentKey"].WallMS)
		rep.set("imaging.resize_ms", sum["imaging.ResizeBilinearInto"].WallMS)
		rep.set("engine.infer_batch_ms", sum["engine.InferBatchInto"].WallMS)
		if err := writeTrace(filepath.Join(rc.dir, "reference"), refTracer.Spans()); err != nil {
			return nil, err
		}
		if err := measureKernels(rep, filepath.Join(rc.dir, "kernels")); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// tracedBrowse renders the same page sequence again with every
// InspectFrame inside a span under its page's Render span, then renders
// pages in pairs without and with PERCIVAL for the Fig. 15 overhead.
func tracedBrowse(rc *runCtx, rep *report, st *browseStack, plainMS []float64) ([]rendered, error) {
	tr := newTracer()
	insp := &pageInspector{svc: st.svc, tr: tr}
	tab, err := browser.New(browser.Config{Profile: browser.Chromium(), Corpus: st.corpus, Inspector: insp})
	if err != nil {
		return nil, err
	}
	traced := renderLoop(tab, st.pages, rc.seconds, func(i int) func() {
		s := tr.begin("browser.Render", 0, int64(i))
		insp.setPage(s)
		return func() { tr.end(s) }
	})

	spans := tr.Spans()
	sum := summarise(spans)
	self := selfTimes(spans)
	var renderNS, coveredNS float64
	for _, s := range spans {
		if s.Name == "browser.Render" {
			renderNS += float64(s.End - s.Start)
			coveredNS += float64(s.End - s.Start - self[s.ID])
		}
	}
	inspects := 0
	for _, r := range traced {
		inspects += r.inspects
	}
	tracedMS := computeMS(traced, rc.clock)
	rep.set("browser.page_self_ms", sum["browser.Render"].SelfMS)
	rep.set("core.inspect_ms", sum["core.InspectFrame"].WallMS)
	rep.set("core.inspect_busy_share", ratio(coveredNS, renderNS))
	rep.set("core.frames_inspected", float64(sum["core.InspectFrame"].Calls))
	rep.set("raster.inspects_per_page", ratio(float64(inspects), float64(len(traced))))
	rep.set("trace.overhead_pct", 100*ratio(quantile(tracedMS, 0.5)-quantile(plainMS, 0.5), quantile(plainMS, 0.5)))
	if err := writeTrace(filepath.Join(rc.dir, "pages"), spans); err != nil {
		return nil, err
	}

	// Fig. 15: render time with the simulated network, paired per page
	base, err := browser.New(browser.Config{Profile: browser.Chromium(), Corpus: st.corpus})
	if err != nil {
		return nil, err
	}
	var withMS, withoutMS []float64
	start := time.Now()
	for i := 0; i < 3 || time.Since(start).Seconds() < rc.seconds/2; i++ {
		url := st.pages[i%len(st.pages)]
		b, err := base.Render(url, 0)
		if err != nil {
			return nil, err
		}
		p, err := st.tab.Render(url, 0)
		if err != nil {
			return nil, err
		}
		withoutMS = append(withoutMS, b.RenderTimeMS)
		withMS = append(withMS, p.RenderTimeMS)
	}
	med := quantile(withoutMS, 0.5)
	rep.set("browser.render_overhead_pct", 100*ratio(quantile(withMS, 0.5)-med, med))
	rep.details["fig15_pairs"] = len(withMS)
	return traced, nil
}

// checkBrowse compares every block decision with core.Classify on the
// decoded creative: PERCIVAL clears a frame when both edges reach the
// minimum and the score reaches the threshold.
func checkBrowse(rep *report, st *browseStack, runs [][]rendered, tr *Tracer) error {
	var urls []string
	seen := map[string]bool{}
	for _, run := range runs {
		for _, r := range run {
			for u := range r.blocked {
				if !seen[u] {
					seen[u] = true
					urls = append(urls, u)
				}
			}
		}
	}
	sort.Strings(urls)
	bodies := make([][]byte, len(urls))
	for i, u := range urls {
		spec, ok := st.corpus.Image(u)
		if !ok {
			return fmt.Errorf("image %s is not in the corpus", u)
		}
		data, err := imaging.Encode(spec.Render(0), spec.Format)
		if err != nil {
			return fmt.Errorf("encode %s: %w", u, err)
		}
		bodies[i] = data
	}
	scores, err := referenceScores(st.svc, bodies, runtime.NumCPU(), tr)
	if err != nil {
		return err
	}
	want := map[string]bool{}
	for i, u := range urls {
		frame, _, err := imaging.Decode(bodies[i])
		if err != nil {
			return err
		}
		const minEdge = 20 // core.Options.MinFrameEdge default
		want[u] = frame.W >= minEdge && frame.H >= minEdge && scores[i] >= st.svc.Threshold()
	}
	mismatches := 0
	for _, run := range runs {
		for _, r := range run {
			rep.attempted++
			if r.err != nil {
				rep.fail("render %s: %v", r.url, r.err)
				continue
			}
			var wrong []string
			for u, got := range r.blocked {
				if got != want[u] {
					wrong = append(wrong, fmt.Sprintf("%s blocked=%v, reference %v", u, got, want[u]))
				}
			}
			if len(wrong) > 0 {
				sort.Strings(wrong)
				rep.fail("page %s: %v", r.url, wrong)
			}
			mismatches += len(wrong)
		}
	}
	if mismatches > 0 {
		rep.problem("%d block decisions differ from the reference", mismatches)
	}
	return nil
}
