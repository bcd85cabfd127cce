package bench

import (
	"fmt"
	"io"
	"strings"
)

// WriteTable renders an experiment's points as an aligned text table.
func WriteTable(w io.Writer, exp Experiment, points []Point) {
	fmt.Fprintf(w, "%s\n", exp.Title)
	fmt.Fprintf(w, "%s\n", strings.Repeat("-", len(exp.Title)))
	fmt.Fprintf(w, "%-18s %-10s %12s %12s %12s %10s %9s\n",
		"param", "algo", "sim sec/q", "phys IO/q", "logical/q", "cpu ms/q", "results")
	for _, pt := range points {
		for _, r := range pt.Rows {
			fmt.Fprintf(w, "%-18s %-10s %12.4f %12.1f %12.1f %10.3f %9.1f\n",
				pt.Param, r.Algo, r.SimSeconds, r.PhysIO, r.LogicalIO, r.CPUSeconds*1000, r.ResultSize)
		}
		if len(pt.Rows) == 2 {
			fmt.Fprintf(w, "%-18s %-10s %12.2fx\n", pt.Param, "ratio", pt.Ratio())
		}
	}
	fmt.Fprintln(w)
}

// WriteCSV renders points as CSV rows with an experiment-id column.
func WriteCSV(w io.Writer, exp Experiment, points []Point, header bool) {
	if header {
		fmt.Fprintln(w, "experiment,param,algo,sim_seconds,phys_io,logical_io,cpu_seconds,results")
	}
	for _, pt := range points {
		for _, r := range pt.Rows {
			fmt.Fprintf(w, "%s,%s,%s,%.6f,%.2f,%.2f,%.6f,%.2f\n",
				exp.ID, pt.Param, r.Algo, r.SimSeconds, r.PhysIO, r.LogicalIO, r.CPUSeconds, r.ResultSize)
		}
	}
}
