package percival_test

// Benchmarks regenerating every table and figure in the paper's evaluation,
// plus ablations of the design choices DESIGN.md calls out. Each BenchmarkFigN
// drives the same runner as `percival-eval -experiment figN`; slow experiment
// benches naturally run a single iteration under the default -benchtime.
//
// Run everything:  go test -bench=. -benchmem
// One experiment:  go test -bench=BenchmarkFig7 -benchtime=1x

import (
	"math/rand"
	"sync"
	"testing"

	"percival/internal/benchsuite"
	"percival/internal/browser"
	"percival/internal/core"
	"percival/internal/crawler"
	"percival/internal/dataset"
	"percival/internal/easylist"
	"percival/internal/eval"
	"percival/internal/imaging"
	"percival/internal/nn"
	"percival/internal/squeezenet"
	"percival/internal/synth"
	"percival/internal/tensor"
	"percival/internal/webgen"
	"percival/internal/zoo"
)

var (
	benchOnce    sync.Once
	benchHarness *eval.Harness
)

// harness returns the shared reduced-scale evaluation harness (the model
// trains once for the whole bench run).
func harness(b *testing.B) *eval.Harness {
	b.Helper()
	benchOnce.Do(func() {
		benchHarness = eval.NewHarness(nil)
		benchHarness.Scale = 0.5
		benchHarness.TrainSamples = 500
		benchHarness.Epochs = 6
	})
	if _, err := benchHarness.Model(); err != nil {
		b.Fatal(err)
	}
	return benchHarness
}

func runExperiment(b *testing.B, id string) {
	h := harness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Run(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3ModelSize regenerates the architecture/size comparison.
func BenchmarkFig3ModelSize(b *testing.B) { runExperiment(b, eval.ExpFig3) }

// BenchmarkFig4GradCAM regenerates the salience maps.
func BenchmarkFig4GradCAM(b *testing.B) { runExperiment(b, eval.ExpFig4) }

// BenchmarkFig6EasyList regenerates the filter-list coverage table.
func BenchmarkFig6EasyList(b *testing.B) { runExperiment(b, eval.ExpFig6) }

// BenchmarkFig7Replication regenerates the EasyList-replication row
// (paper: 96.76% accuracy).
func BenchmarkFig7Replication(b *testing.B) { runExperiment(b, eval.ExpFig7) }

// BenchmarkFig8External regenerates the external-dataset validation.
func BenchmarkFig8External(b *testing.B) { runExperiment(b, eval.ExpFig8) }

// BenchmarkFig9Languages regenerates the five-language table.
func BenchmarkFig9Languages(b *testing.B) { runExperiment(b, eval.ExpFig9) }

// BenchmarkFig10Facebook regenerates the first-party blocking row.
func BenchmarkFig10Facebook(b *testing.B) { runExperiment(b, eval.ExpFig10) }

// BenchmarkFig13Search regenerates the image-search probe table.
func BenchmarkFig13Search(b *testing.B) { runExperiment(b, eval.ExpFig13) }

// BenchmarkFig14RenderCDF regenerates the four render-time distributions.
func BenchmarkFig14RenderCDF(b *testing.B) { runExperiment(b, eval.ExpFig14) }

// BenchmarkFig15Overhead regenerates the median-overhead table (paper:
// +4.55% Chromium, +19.07% Brave).
func BenchmarkFig15Overhead(b *testing.B) { runExperiment(b, eval.ExpFig15) }

// BenchmarkCrawlComparison regenerates the §4.4 crawler-methodology table.
func BenchmarkCrawlComparison(b *testing.B) { runExperiment(b, eval.ExpCrawl) }

// BenchmarkAsyncMemoization regenerates the sync-vs-async deployment table.
func BenchmarkAsyncMemoization(b *testing.B) { runExperiment(b, eval.ExpAsync) }

// --- micro-benchmarks and ablations ---

// BenchmarkInferSingle measures raw single-frame inference latency at paper
// resolution on the arena fast path (model forward only, no harness
// training): the per-frame cost PERCIVAL adds to the rendering critical
// path. Steady state should report ~zero allocs/op.
func BenchmarkInferSingle(b *testing.B) { benchsuite.InferSingle(b) }

// BenchmarkInferBatch measures batched inference throughput (8 frames per
// forward pass) on the arena fast path, the ClassifyBatch workload.
func BenchmarkInferBatch(b *testing.B) { benchsuite.InferBatch(b) }

// BenchmarkInferSingleInt8 measures single-frame inference latency at paper
// resolution on the quantized arena path — the INT8 counterpart of
// BenchmarkInferSingle. Steady state should report 0 allocs/op. (Benchmark
// bodies live in internal/benchsuite, shared with cmd/percival-bench.)
func BenchmarkInferSingleInt8(b *testing.B) { benchsuite.InferSingleInt8(b) }

// BenchmarkInferBatchInt8 measures batched quantized throughput (8 frames
// per forward pass) — the quantized ClassifyBatch workload.
func BenchmarkInferBatchInt8(b *testing.B) { benchsuite.InferBatchInt8(b) }

// BenchmarkServeSteady8 measures the micro-batching service's steady state
// at concurrency 8 on non-repeating frames (cache off): the pure-batching
// throughput row, and the 0 allocs/op gate for the serve hot path.
func BenchmarkServeSteady8(b *testing.B) { benchsuite.ServeSteady8(b) }

// BenchmarkServeSteady8Int8 is the INT8 steady-state serving benchmark.
func BenchmarkServeSteady8Int8(b *testing.B) { benchsuite.ServeSteady8Int8(b) }

// BenchmarkServeRotation8 measures serving throughput on the rotation
// workload (16 distinct creatives sighted by 8 concurrent clients each,
// cold cache per window) — the repeated-creative reality the sharded cache
// and in-flight coalescing exploit.
func BenchmarkServeRotation8(b *testing.B) { benchsuite.ServeRotation8(b) }

// BenchmarkServeRotation8Int8 is the INT8 rotation-workload benchmark.
func BenchmarkServeRotation8Int8(b *testing.B) { benchsuite.ServeRotation8Int8(b) }

// BenchmarkServeRotation8x2 is the rotation workload over 2 dispatch
// shards (content-hash range partitions, per-shard backend replicas) with
// the AIMD adaptive linger policy.
func BenchmarkServeRotation8x2(b *testing.B) { benchsuite.ServeRotation8x2(b) }

// BenchmarkServeRotation8x2Int8 is the INT8 2-shard rotation benchmark.
func BenchmarkServeRotation8x2Int8(b *testing.B) { benchsuite.ServeRotation8x2Int8(b) }

// BenchmarkServeRotation8x4 is the 4-shard rotation benchmark.
func BenchmarkServeRotation8x4(b *testing.B) { benchsuite.ServeRotation8x4(b) }

// BenchmarkServeRotationPinned is the core-pinned lane rotation benchmark:
// one OS-thread-locked dispatch lane per GOMAXPROCS slot with the GEMM pool
// partitioned across lanes. Run it under different GOMAXPROCS values (the
// core_sweep section of BENCH_9.json does) to trace multi-core scaling.
func BenchmarkServeRotationPinned(b *testing.B) { benchsuite.ServeRotationPinned(b) }

// BenchmarkServeRemote8x2 is the two-tier rotation benchmark: 2 dispatch
// shards proxying every forward pass to two backend replicas over the
// loopback socket wire (engine.RemoteBackend), with the peers' verdict
// caches cleared every window so no dedup probe hits. Its delta against
// BenchmarkServeRotation8x2 is the cold remote-dispatch proxy overhead.
func BenchmarkServeRemote8x2(b *testing.B) { benchsuite.ServeRemote8x2(b) }

// BenchmarkServeRemoteWire8x2 is the cache-warm socket-wire benchmark: the
// remote topology with hash-first dedup answering repeat creatives from the
// peers' verdict caches. It gates the transport's contracts — bit-identical
// verdicts, >=10x cache-warm wire-bytes cut, zero fail-open — and its delta
// against BenchmarkServeRotation8x2 is the socket dispatch overhead.
func BenchmarkServeRemoteWire8x2(b *testing.B) { benchsuite.ServeRemoteWire8x2(b) }

// BenchmarkServeChaos8x2 is the fleet-health row: the remote topology plus
// a spare replica under fault injection (one preferred peer blackholed and
// evicted, one serving a 20% slow tail absorbed by hedging). It asserts the
// self-healing contract — zero fail-open, steady-chaos p99 within 2x the
// healthy-fleet p99, automatic re-admission — while measuring chaos-phase
// throughput.
func BenchmarkServeChaos8x2(b *testing.B) { benchsuite.ServeChaos8x2(b) }

// BenchmarkServeOverload8x2 is the admission-control row: the chaos
// topology offered 2x its measured healthy throughput open-loop while one
// peer serves a 20% slow tail. It asserts the graded-brownout contract —
// zero fail-open, the ladder engages (stage >= 1) and releases after the
// load drops, goodput >= 80% of healthy throughput — while measuring
// goodput under overload.
func BenchmarkServeOverload8x2(b *testing.B) { benchsuite.ServeOverload8x2(b) }

// BenchmarkServeReroute8x2 is the control-plane row: a 3-peer fleet with
// one always-slow peer, routed by congestion-window headroom per unit
// latency EWMA behind the canary dispatch proxy. It asserts the
// fleet-control contract — weighted goodput >= the static lane-pinned
// baseline, live drain+remove/add mid-run with zero fail-open and
// bit-identical verdicts, canary rollback of a disagreeing model and
// promotion of an agreeing one driven only by the live agreement floor —
// while measuring weighted-routing throughput.
func BenchmarkServeReroute8x2(b *testing.B) { benchsuite.ServeReroute8x2(b) }

// BenchmarkServeSteady8x2 is the sharded steady-state benchmark and the
// 0 allocs/op gate for the sharded dispatch hot path.
func BenchmarkServeSteady8x2(b *testing.B) { benchsuite.ServeSteady8x2(b) }

// BenchmarkSyncClassify8 is the baseline the serve layer is measured
// against: the same rotation workload as synchronous single-frame Classify
// calls from 8 concurrent goroutines.
func BenchmarkSyncClassify8(b *testing.B) { benchsuite.SyncClassify8(b) }

// BenchmarkSyncClassify8Int8 is the INT8 synchronous baseline.
func BenchmarkSyncClassify8Int8(b *testing.B) { benchsuite.SyncClassify8Int8(b) }

// BenchmarkClassifySingleFrame measures the per-frame model latency the
// paper quotes as 11 ms at 224px (ours runs at the harness resolution).
func BenchmarkClassifySingleFrame(b *testing.B) {
	h := harness(b)
	svc, err := h.Service(core.Synchronous)
	if err != nil {
		b.Fatal(err)
	}
	g := synth.NewGenerator(1, synth.CrawlStyle())
	frame := g.Ad()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc.Classify(frame)
	}
}

// BenchmarkClassifyPaperResolution measures the 224×224×4 forward pass of
// the paper-scale fork with random weights (pure inference cost).
func BenchmarkClassifyPaperResolution(b *testing.B) {
	net, err := squeezenet.Build(squeezenet.PaperConfig())
	if err != nil {
		b.Fatal(err)
	}
	squeezenet.PretrainedInit(net, 1)
	x := tensor.New(1, 4, 224, 224)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x.Clone(), false)
	}
}

// BenchmarkAblationArchitecture contrasts the fork against the original
// SqueezeNet it was cut down from (the Fig. 3 latency motivation).
func BenchmarkAblationArchitecture(b *testing.B) {
	x224x3 := tensor.New(1, 3, 224, 224)
	x224x4 := tensor.New(1, 4, 224, 224)
	b.Run("percival-fork", func(b *testing.B) {
		net, _ := squeezenet.Build(squeezenet.PaperConfig())
		squeezenet.PretrainedInit(net, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.Forward(x224x4.Clone(), false)
		}
	})
	b.Run("original-squeezenet", func(b *testing.B) {
		net := squeezenet.BuildOriginal(squeezenet.OriginalSqueezeNet())
		nn.InitHe(net, rand.New(rand.NewSource(1)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.Forward(x224x3.Clone(), false)
		}
	})
	b.Run("yolo-class-standin", func(b *testing.B) {
		net := zoo.BuildStandIn(zoo.StandInYOLOClass, 4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.Forward(x224x4.Clone(), false)
		}
	})
}

// BenchmarkAblationConvAlgo contrasts the im2col+GEMM convolution against a
// direct nested-loop convolution on a representative fork layer.
func BenchmarkAblationConvAlgo(b *testing.B) {
	spec := tensor.ConvSpec{InC: 64, OutC: 64, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	rng := rand.New(rand.NewSource(2))
	x := tensor.New(1, 64, 28, 28)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	w := make([]float32, spec.OutC*spec.InC*9)
	for i := range w {
		w[i] = float32(rng.NormFloat64())
	}
	oh, ow := spec.OutSize(28, 28)
	col := make([]float32, spec.InC*9*oh*ow)
	b.Run("im2col-gemm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.ConvForward(x, w, nil, spec, col)
		}
	})
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			directConv(x, w, spec)
		}
	})
}

// directConv is the naive reference convolution used by the ablation.
func directConv(x *tensor.Tensor, w []float32, s tensor.ConvSpec) *tensor.Tensor {
	n, c, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := s.OutSize(h, wd)
	y := tensor.New(n, s.OutC, oh, ow)
	for i := 0; i < n; i++ {
		for oc := 0; oc < s.OutC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var sum float32
					for ic := 0; ic < c; ic++ {
						for ky := 0; ky < s.KH; ky++ {
							iy := oy*s.StrideH - s.PadH + ky
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < s.KW; kx++ {
								ix := ox*s.StrideW - s.PadW + kx
								if ix < 0 || ix >= wd {
									continue
								}
								sum += w[((oc*c+ic)*s.KH+ky)*s.KW+kx] * x.At(i, ic, iy, ix)
							}
						}
					}
					y.Set(sum, i, oc, oy, ox)
				}
			}
		}
	}
	return y
}

// BenchmarkAblationRasterWorkers sweeps the raster pool size to show the
// §3.1 parallelism win (one classifier instance per raster worker).
func BenchmarkAblationRasterWorkers(b *testing.B) {
	h := harness(b)
	svc, err := h.Service(core.Synchronous)
	if err != nil {
		b.Fatal(err)
	}
	corpus := webgen.NewCorpus(99, 6)
	url := corpus.Sites[0].PageURLs[0]
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(workerName(workers), func(b *testing.B) {
			br, err := browser.New(browser.Config{
				Profile: browser.Chromium(), Corpus: corpus,
				Inspector: svc, RasterWorkers: workers,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := br.Render(url, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func workerName(n int) string {
	return string(rune('0'+n)) + "-workers"
}

// BenchmarkAblationHookPoint contrasts the two data-access strategies from
// §2.2/§4.4: element screenshots (race-prone) versus in-pipeline frames.
func BenchmarkAblationHookPoint(b *testing.B) {
	corpus := webgen.NewCorpus(123, 8)
	list, errs := easylist.Parse(corpus.SyntheticEasyList())
	if len(errs) > 0 {
		b.Fatal(errs[0])
	}
	var pages []string
	for _, s := range corpus.Sites {
		pages = append(pages, s.PageURLs[0])
	}
	b.Run("element-screenshot", func(b *testing.B) {
		tc := &crawler.Traditional{Corpus: corpus, List: list, ScreenshotDelayMS: 400}
		for i := 0; i < b.N; i++ {
			if _, _, _, err := tc.Crawl(pages); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pipeline-frames", func(b *testing.B) {
		pc := &crawler.Pipeline{Corpus: corpus, Labeler: crawler.GroundTruthLabeler{Corpus: corpus}}
		for i := 0; i < b.N; i++ {
			if _, _, err := pc.Crawl(pages, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMemoizationHitRate measures the async cache's effect on repeated
// creatives (the §1 "speeding up the classification process" claim).
func BenchmarkMemoizationHitRate(b *testing.B) {
	h := harness(b)
	g := synth.NewGenerator(5, synth.CrawlStyle())
	frames := make([]*imaging.Bitmap, 10)
	for i := range frames {
		frames[i], _ = g.Sample()
	}
	b.Run("cold-every-frame", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			svc, err := h.Service(core.Synchronous)
			if err != nil {
				b.Fatal(err)
			}
			for _, f := range frames {
				svc.InspectFrame("x", f)
			}
		}
	})
	b.Run("warm-cache", func(b *testing.B) {
		svc, err := h.Service(core.Synchronous)
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range frames {
			svc.InspectFrame("x", f)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, f := range frames {
				svc.InspectFrame("x", f)
			}
		}
	})
}

// BenchmarkTrainingEpoch measures one SGD epoch at the harness scale
// (§4.3's training recipe on this engine).
func BenchmarkTrainingEpoch(b *testing.B) {
	arch := squeezenet.SmallConfig(32)
	ds := dataset.Generate(7, synth.CrawlStyle(), 96)
	cfg := dataset.FastTraining(arch, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.Train(cfg, ds); err != nil {
			b.Fatal(err)
		}
	}
}
