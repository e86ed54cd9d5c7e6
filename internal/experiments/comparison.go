package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/moldable"
	"repro/internal/schedule"
)

// Comparison pits the paper's algorithms against the naive baselines on
// every workload preset: measured makespan normalized by the instance
// lower bound, plus wall-clock time. It makes the quality gap concrete:
// the baselines have no guarantee and lose badly on at least one preset
// each, while the paper's algorithms stay within theirs everywhere.
func Comparison(ctx context.Context, w io.Writer, n, m int, eps float64, seed uint64) {
	if n == 0 {
		n = 64
	}
	if m == 0 {
		m = 256
	}
	if eps == 0 {
		eps = 0.25
	}
	fmt.Fprintf(w, "Algorithm comparison — makespan / lower bound per workload preset (n=%d, m=%d, ε=%g)\n", n, m, eps)
	type entry struct {
		name string
		run  func(in *moldable.Instance) (*schedule.Schedule, time.Duration, error)
	}
	var entries []entry
	for _, b := range baseline.Names() {
		b := b
		entries = append(entries, entry{b, func(in *moldable.Instance) (*schedule.Schedule, time.Duration, error) {
			start := time.Now()
			s := baseline.Run(b, in)
			return s, time.Since(start), nil
		}})
	}
	for _, a := range []core.Algorithm{core.LT2, core.MRT, core.Linear} {
		a := a
		entries = append(entries, entry{a.String(), func(in *moldable.Instance) (*schedule.Schedule, time.Duration, error) {
			start := time.Now()
			s, _, err := core.ScheduleCtx(ctx, in, core.Options{Algorithm: a, Eps: eps})
			return s, time.Since(start), err
		}})
	}
	header := append([]string{"algorithm"}, moldable.PresetNames()...)
	header = append(header, "time(mixed)")
	rows := make([][]string, 0, len(entries))
	for _, e := range entries {
		row := []string{e.name}
		var tMixed time.Duration
		for _, preset := range moldable.PresetNames() {
			cfg, _ := moldable.Preset(preset)
			cfg.N, cfg.M, cfg.Seed = n, m, seed
			in := moldable.Random(cfg)
			s, el, err := e.run(in)
			if err != nil {
				row = append(row, "err")
				continue
			}
			if verr := schedule.Validate(in, s, schedule.Options{}); verr != nil {
				row = append(row, "INVALID")
				continue
			}
			row = append(row, fmt.Sprintf("%.3f", s.Makespan()/in.LowerBound()))
			if preset == "mixed" {
				tMixed = el
			}
		}
		row = append(row, fmtDur(tMixed))
		rows = append(rows, row)
	}
	writeTable(w, "ratio to lower bound (LB ≤ OPT, so values are upper bounds on the true ratio)",
		header, rows)
	fmt.Fprintf(w, "reading: every baseline has a preset where it loses badly (all-parallel on\n")
	fmt.Fprintf(w, "serialfarm, all-sequential on embarrassing/capability); the paper's algorithms\n")
	fmt.Fprintf(w, "never exceed their guarantee relative to OPT on any preset.\n")
}
