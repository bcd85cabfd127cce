package bench

import (
	"encoding/json"
	"io"
	"runtime"
)

// Report is the JSON-serialisable form of one benchmark session: the
// configuration, the machine it ran on, and every experiment's points.
// cmd/mcnbench -json and cmd/mcnsoak -json write one of these.
type Report struct {
	Config  Config             `json:"config"`
	Host    Host               `json:"host"`
	Results []ExperimentResult `json:"results"`
}

// Host describes the machine a report was produced on.
type Host struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
}

// CurrentHost captures the running machine.
func CurrentHost() Host {
	return Host{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
}

// ExperimentResult pairs an experiment with its measured points.
type ExperimentResult struct {
	ID     string  `json:"id"`
	Title  string  `json:"title"`
	Points []Point `json:"points"`
}

// WriteJSON renders a report as indented JSON.
func WriteJSON(w io.Writer, r Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
