package main

import (
	"sort"
	"sync"
	"time"
)

// stealClock samples /proc/stat through a run so timings can be corrected
// for hypervisor steal. On a shared VM the steal share swings between a
// few percent and a third of the CPU time within minutes, and every
// CPU-bound timing stretches with it. A timing over [a,b] is reported as
// its wall time times one minus the steal share over that interval: the
// time it would have taken had the VM kept its CPUs. The raw wall times
// stay in report.json.
type stealClock struct {
	mu      sync.Mutex
	samples []stealSample
	stop    chan struct{}
	done    chan struct{}
}

type stealSample struct {
	at time.Time
	cpuTimes
}

const (
	stealEvery     = 20 * time.Millisecond
	stealMinWindow = 500 * time.Millisecond // /proc/stat counts in 10 ms jiffies
)

func startStealClock() *stealClock {
	c := &stealClock{stop: make(chan struct{}), done: make(chan struct{})}
	c.sample()
	go func() {
		defer close(c.done)
		tick := time.NewTicker(stealEvery)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				c.sample()
				return
			case <-tick.C:
				c.sample()
			}
		}
	}()
	return c
}

func (c *stealClock) sample() {
	s := stealSample{at: time.Now(), cpuTimes: readCPUTimes()}
	c.mu.Lock()
	c.samples = append(c.samples, s)
	c.mu.Unlock()
}

// close stops the sampler and waits for it.
func (c *stealClock) close() {
	close(c.stop)
	<-c.done
}

// at interpolates the counters at t, clamped to the sampled range.
func (c *stealClock) at(t time.Time) cpuTimes {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.samples
	i := sort.Search(len(s), func(i int) bool { return !s[i].at.Before(t) })
	if i == 0 {
		return s[0].cpuTimes
	}
	if i == len(s) {
		return s[len(s)-1].cpuTimes
	}
	lo, hi := s[i-1], s[i]
	f := float64(t.Sub(lo.at)) / float64(hi.at.Sub(lo.at))
	return cpuTimes{
		busy:  lo.busy + f*(hi.busy-lo.busy),
		steal: lo.steal + f*(hi.steal-lo.steal),
	}
}

// share is the steal share over [a,b], widened to at least stealMinWindow
// around its middle.
func (c *stealClock) share(a, b time.Time) float64 {
	if w := b.Sub(a); w < stealMinWindow {
		mid := a.Add(w / 2)
		a, b = mid.Add(-stealMinWindow/2), mid.Add(stealMinWindow/2)
	}
	return stealShare(c.at(a), c.at(b))
}

// correct scales a timing taken over [a,b] to the time it would have taken
// without steal.
func (c *stealClock) correct(v float64, a, b time.Time) float64 {
	return v * (1 - c.share(a, b))
}
