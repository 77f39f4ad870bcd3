package main

import (
	"math/rand"
	"runtime"
	"time"

	"percival/internal/benchsuite"
	"percival/internal/nn"
	"percival/internal/tensor"
)

// timeMS runs f reps times after one untimed warm-up call, recording each
// timed call as a span, and returns the median call time in milliseconds.
func timeMS(tr *Tracer, name string, reps int, f func()) float64 {
	f()
	ms := make([]float64, reps)
	for i := range ms {
		start := time.Now()
		f()
		end := time.Now()
		tr.record(name, 0, int64(i), start, end)
		ms[i] = float64(end.Sub(start)) / 1e6
	}
	return quantile(ms, 0.5)
}

// allocsPerRun is the mean heap allocations of f over reps calls after one
// warm-up call. Unlike testing.AllocsPerRun it keeps GOMAXPROCS as it is,
// so the parallel GEMM path is the one counted.
func allocsPerRun(reps int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(reps)
}

func randomTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	for i := range x.Data {
		x.Data[i] = float32(rng.Float64())
	}
	return x
}

// convFLOPs counts the multiply-adds of one convolution as two operations.
func convFLOPs(c *nn.Conv2D, n, h, w int) float64 {
	oh, ow := c.Spec.OutSize(h, w)
	s := c.Spec
	return 2 * float64(n*s.OutC*oh*ow) * float64(s.InC*s.KH*s.KW)
}

// layerOps counts the operations one layer performs on an [n,c,h,w]
// input: multiply-adds for convolutions, one per window element for
// pooling, one per input element for global average pooling.
func layerOps(l nn.Layer, n, c, h, w int) float64 {
	switch l := l.(type) {
	case *nn.Conv2D:
		return convFLOPs(l, n, h, w)
	case *nn.Fire:
		sh, sw := l.Squeeze.Spec.OutSize(h, w)
		return convFLOPs(l.Squeeze, n, h, w) + convFLOPs(l.Expand1, n, sh, sw) + convFLOPs(l.Expand3, n, sh, sw)
	case *nn.MaxPool:
		oh, ow := l.Spec.OutSize(h, w)
		return float64(n*c*oh*ow) * float64(l.Spec.K*l.Spec.K)
	case *nn.GlobalAvgPool:
		return float64(n * c * h * w)
	}
	return 0
}

// measureKernels times the paper network layer by layer through
// nn.NewSequential over slices of its exported layers, whole frames at
// batch 1 and 16, allocations per frame on the FP32 and INT8 paths, and
// the stem kernels of internal/tensor. The timed calls are written as
// spans under dir.
func measureKernels(rep *report, dir string) error {
	const reps = 5
	tr := newTracer()
	net := benchsuite.PaperNet()
	byName := map[string]nn.Layer{}
	for _, l := range net.Layers {
		byName[l.Name()] = l
	}
	rng := rand.New(rand.NewSource(7))
	a := tensor.NewArena()
	x := randomTensor(rng, 1, 4, 224, 224)

	in := x
	ms := make([]float64, len(nnGroups))
	ops := make([]float64, len(nnGroups))
	for gi, g := range nnGroups {
		var layers []nn.Layer
		for _, name := range g.layers {
			layers = append(layers, byName[name])
		}
		seq := nn.NewSequential(layers...)
		n, c, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
		for _, l := range layers {
			ops[gi] += layerOps(l, n, c, h, w)
		}
		ms[gi] = timeMS(tr, "nn.Sequential.ForwardInfer/"+g.name, reps, func() { a.PutTensor(seq.ForwardInfer(in, a)) })
		y := seq.ForwardInfer(in, a)
		next := tensor.New(y.Shape...)
		copy(next.Data, y.Data)
		a.PutTensor(y)
		if len(next.Shape) == 2 {
			next.Shape = append(next.Shape, 1, 1)
		}
		in = next
	}
	total := 0.0
	for _, v := range ms {
		total += v
	}
	for gi, g := range nnGroups {
		rep.set("nn."+g.name+"_ms", ms[gi])
		rep.set("nn."+g.name+"_share", ratio(ms[gi], total))
		rep.set("nn."+g.name+"_gflops", ratio(ops[gi], ms[gi]*1e6))
	}

	rep.set("nn.frame_ms_b1", timeMS(tr, "nn.PredictArena/b1", reps, func() { a.PutTensor(nn.PredictArena(net, x, a)) }))
	x16 := randomTensor(rng, 16, 4, 224, 224)
	rep.set("nn.frame_ms_b16", timeMS(tr, "nn.PredictArena/b16", 2, func() { a.PutTensor(nn.PredictArena(net, x16, a)) })/16)
	rep.set("nn.allocs_per_frame_fp32", allocsPerRun(reps, func() { a.PutTensor(nn.PredictArena(net, x, a)) }))
	qnet := benchsuite.PaperQuantNet()
	rep.set("nn.allocs_per_frame_int8", allocsPerRun(reps, func() { a.PutTensor(qnet.PredictArena(x, a)) }))

	// the stem: 96 filters of 4×7×7 over a 112×112 output
	const m, k, n = 96, 196, 12544
	fa, fb, fc := make([]float32, m*k), make([]float32, k*n), make([]float32, m*n)
	for i := range fa {
		fa[i] = float32(rng.NormFloat64())
	}
	for i := range fb {
		fb[i] = float32(rng.NormFloat64())
	}
	gemmMS := timeMS(tr, "tensor.Gemm/stem", reps, func() { tensor.Gemm(fa, fb, fc, m, k, n) })
	rep.set("tensor.gemm_stem_gflops", ratio(2*m*k*n, gemmMS*1e6))
	qa, qb, qc := make([]int8, m*k), make([]uint8, k*n), make([]int32, m*n)
	for i := range qa {
		qa[i] = int8(rng.Intn(255) - 127)
	}
	for i := range qb {
		qb[i] = uint8(rng.Intn(tensor.QMaxU8 + 1))
	}
	rep.set("tensor.qgemm_stem_ms", timeMS(tr, "tensor.QGemm/stem", reps, func() { tensor.QGemm(qa, qb, qc, m, k, n) }))
	pool := tensor.PoolSpec{K: 3, Stride: 2}
	stem := randomTensor(rng, 1, 96, 112, 112)
	oh, ow := pool.OutSize(112, 112)
	pooled := tensor.New(1, 96, oh, ow)
	rep.set("tensor.maxpool_stem_ms", timeMS(tr, "tensor.MaxPoolForwardInto/stem", reps, func() { tensor.MaxPoolForwardInto(stem, pool, pooled) }))
	return writeTrace(dir, tr.Spans())
}
