package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the smoke check compares.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// smokeSeconds is how long each smoke run measures.
const smokeSeconds = 2

// runSmoke runs every workload of BENCHMARK.json briefly, untraced and
// traced, and checks that each printed exactly the metrics BENCHMARK.json
// names, with their units, and that correctness held.
func runSmoke(serveBin, out string) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	want := [2]map[string]string{{}, {}}
	for _, m := range bf.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want[1][m.Name] = m.Unit
	}
	for trace, specs := range [][]metricSpec{endToEnd, perLayer} {
		have := map[string]string{}
		for _, s := range specs {
			have[s.name] = s.unit
		}
		if err := sameMetrics(have, want[trace]); err != nil {
			return fmt.Errorf("trace %d metric table and BENCHMARK.json differ: %w", trace, err)
		}
	}
	for _, w := range bf.Workloads {
		run, ok := workloads[w.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
		for trace := 0; trace <= 1; trace++ {
			rc := &runCtx{workload: w.Name, seed: 1, seconds: smokeSeconds, trace: trace == 1, serveBin: serveBin,
				dir: filepath.Join(out, fmt.Sprintf("smoke-%s-trace%d", w.Name, trace))}
			res, err := measure(rc, run)
			stopAll()
			if err != nil {
				return err
			}
			have := map[string]string{}
			for name, m := range res.Metrics {
				have[name] = m.Unit
			}
			if err := sameMetrics(have, want[trace]); err != nil {
				return fmt.Errorf("%s trace %d: %w", w.Name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 {
				return fmt.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			fmt.Fprintf(os.Stderr, "smoke %s trace %d: ok, %d attempted, %d failed\n", w.Name, trace, res.Attempted, res.Failed)
		}
	}
	return nil
}

func sameMetrics(have, want map[string]string) error {
	var diffs []string
	for name, unit := range want {
		if u, ok := have[name]; !ok {
			diffs = append(diffs, "missing "+name)
		} else if u != unit {
			diffs = append(diffs, fmt.Sprintf("%s unit %q, want %q", name, u, unit))
		}
	}
	for name := range have {
		if _, ok := want[name]; !ok {
			diffs = append(diffs, "unexpected "+name)
		}
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		return fmt.Errorf("%v", diffs)
	}
	return nil
}
