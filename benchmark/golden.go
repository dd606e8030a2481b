package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The golden files hold, per workload, lap and interval (warm-ups
// included), the total granted rate of the plan at the commit that defined
// the benchmark. The total is the LP's optimum, so it is the same whichever
// optimal vertex a solver lands on, and any other value means the solver
// lost optimality or the inputs changed. Only seeds with a file are checked.
//
//go:embed golden/*.json
var goldenFS embed.FS

// goldenTotals maps workload → lap → interval-1 → total granted rate; 0
// marks an interval that produced no plan.
type goldenTotals map[string][][]float64

func loadGolden(seed int64) (goldenTotals, error) {
	blob, err := goldenFS.ReadFile(fmt.Sprintf("golden/seed%d.json", seed))
	if err != nil {
		return nil, nil
	}
	var g goldenTotals
	if err := json.Unmarshal(blob, &g); err != nil {
		return nil, fmt.Errorf("golden/seed%d.json: %w", seed, err)
	}
	return g, nil
}

func (g goldenTotals) at(workload string, lap, interval int) (float64, bool) {
	laps := g[workload]
	if lap >= len(laps) || interval > len(laps[lap]) || laps[lap][interval-1] == 0 {
		return 0, false
	}
	return laps[lap][interval-1], true
}

// note records the total granted rate of one interval's plan.
func (g goldenTotals) note(workload string, lap, interval int, total float64) {
	laps := g[workload]
	for len(laps) <= lap {
		laps = append(laps, nil)
	}
	for len(laps[lap]) < interval {
		laps[lap] = append(laps[lap], 0)
	}
	laps[lap][interval-1] = total
	g[workload] = laps
}

// write saves the totals as the seed's golden file, one lap per line.
func (g goldenTotals) write(dir string, seed int64) error {
	names := make([]string, 0, len(g))
	for name := range g {
		names = append(names, name)
	}
	sort.Strings(names)
	var b bytes.Buffer
	b.WriteString("{")
	for i, name := range names {
		fmt.Fprintf(&b, "%s\n %q: [", strings.Repeat(",", min(i, 1)), name)
		for lap, totals := range g[name] {
			line, err := json.Marshal(totals)
			if err != nil {
				return err
			}
			fmt.Fprintf(&b, "%s\n  %s", strings.Repeat(",", min(lap, 1)), line)
		}
		b.WriteString("\n ]")
	}
	b.WriteString("\n}\n")
	return os.WriteFile(filepath.Join(dir, "golden", fmt.Sprintf("seed%d.json", seed)), b.Bytes(), 0o644)
}
