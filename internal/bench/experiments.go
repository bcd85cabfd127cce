package bench

import (
	"fmt"

	"mcn/internal/gen"
)

// facilitySweep is the |P| axis of Figs. 8(a) and 10(a): 25K…200K at paper
// scale, multiplied by cfg.Scale.
var facilitySweep = []int{25_000, 50_000, 100_000, 150_000, 200_000}

// dSweep is the cost-type axis of Figs. 8(b) and 10(b).
var dSweep = []int{2, 3, 4, 5}

// distSweep is the cost-distribution axis of Figs. 9(a) and 11(a).
var distSweep = []gen.Distribution{gen.AntiCorrelated, gen.Independent, gen.Correlated}

// bufferSweep is the cache-size axis of Figs. 9(b) and 11(b): percentages of
// the database pages.
var bufferSweep = []float64{0, 0.005, 0.01, 0.015, 0.02}

// kSweep is the axis of Fig. 12.
var kSweep = []int{1, 2, 4, 8, 16}

// All returns the experiments regenerating every figure of Sec. VI, in paper
// order.
func All() []Experiment {
	return []Experiment{
		{
			ID:    "fig8a",
			Title: "Fig. 8(a): skyline processing time vs |P|",
			Run: func(cfg Config) ([]Point, error) {
				cfg.defaults()
				params := make([]string, len(facilitySweep))
				for i, p := range facilitySweep {
					params[i] = fmt.Sprintf("|P|=%dK", p/1000)
				}
				return sweep(cfg, skylineQuery, params, func(w *Workload, i int) {
					w.Facilities = int(float64(facilitySweep[i]) * cfg.Scale)
				})
			},
		},
		{
			ID:    "fig8b",
			Title: "Fig. 8(b): skyline processing time vs number of cost types d",
			Run: func(cfg Config) ([]Point, error) {
				params := make([]string, len(dSweep))
				for i, d := range dSweep {
					params[i] = fmt.Sprintf("d=%d", d)
				}
				return sweep(cfg, skylineQuery, params, func(w *Workload, i int) {
					w.D = dSweep[i]
				})
			},
		},
		{
			ID:    "fig9a",
			Title: "Fig. 9(a): skyline processing time vs edge-cost distribution",
			Run: func(cfg Config) ([]Point, error) {
				params := make([]string, len(distSweep))
				for i, d := range distSweep {
					params[i] = d.String()
				}
				return sweep(cfg, skylineQuery, params, func(w *Workload, i int) {
					w.Dist = distSweep[i]
				})
			},
		},
		{
			ID:    "fig9b",
			Title: "Fig. 9(b): skyline processing time vs buffer size",
			Run: func(cfg Config) ([]Point, error) {
				params := make([]string, len(bufferSweep))
				for i, b := range bufferSweep {
					params[i] = fmt.Sprintf("buffer=%.1f%%", b*100)
				}
				return sweep(cfg, skylineQuery, params, func(w *Workload, i int) {
					w.Buffer = bufferSweep[i]
				})
			},
		},
		{
			ID:    "fig10a",
			Title: "Fig. 10(a): top-k processing time vs |P|",
			Run: func(cfg Config) ([]Point, error) {
				cfg.defaults()
				params := make([]string, len(facilitySweep))
				for i, p := range facilitySweep {
					params[i] = fmt.Sprintf("|P|=%dK", p/1000)
				}
				return sweep(cfg, topkQuery, params, func(w *Workload, i int) {
					w.Facilities = int(float64(facilitySweep[i]) * cfg.Scale)
				})
			},
		},
		{
			ID:    "fig10b",
			Title: "Fig. 10(b): top-k processing time vs number of cost types d",
			Run: func(cfg Config) ([]Point, error) {
				params := make([]string, len(dSweep))
				for i, d := range dSweep {
					params[i] = fmt.Sprintf("d=%d", d)
				}
				return sweep(cfg, topkQuery, params, func(w *Workload, i int) {
					w.D = dSweep[i]
				})
			},
		},
		{
			ID:    "fig11a",
			Title: "Fig. 11(a): top-k processing time vs edge-cost distribution",
			Run: func(cfg Config) ([]Point, error) {
				params := make([]string, len(distSweep))
				for i, d := range distSweep {
					params[i] = d.String()
				}
				return sweep(cfg, topkQuery, params, func(w *Workload, i int) {
					w.Dist = distSweep[i]
				})
			},
		},
		{
			ID:    "fig11b",
			Title: "Fig. 11(b): top-k processing time vs buffer size",
			Run: func(cfg Config) ([]Point, error) {
				params := make([]string, len(bufferSweep))
				for i, b := range bufferSweep {
					params[i] = fmt.Sprintf("buffer=%.1f%%", b*100)
				}
				return sweep(cfg, topkQuery, params, func(w *Workload, i int) {
					w.Buffer = bufferSweep[i]
				})
			},
		},
		{
			ID:    "fig12",
			Title: "Fig. 12: top-k processing time vs k",
			Run: func(cfg Config) ([]Point, error) {
				params := make([]string, len(kSweep))
				for i, k := range kSweep {
					params[i] = fmt.Sprintf("k=%d", k)
				}
				return sweep(cfg, topkQuery, params, func(w *Workload, i int) {
					w.K = kSweep[i]
				})
			},
		},
		{
			ID:    "ablation",
			Title: "Ablation: Sec. IV-A enhancements on vs off (skyline, defaults)",
			Run:   runAblation,
		},
		{
			ID:    "baseline",
			Title: "Baseline: naive d-expansions method vs LSA/CEA (skyline, defaults)",
			Run:   runBaseline,
		},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
