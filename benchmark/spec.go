package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// benchSpec mirrors BENCHMARK.json, the single source of metric names,
// units and bounds: the program prints exactly what the file lists.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

var spec benchSpec

// findRoot walks up from the working directory to the checkout root, the
// directory holding BENCHMARK.json (`go run -C benchmark .` starts the
// program inside benchmark/).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found above the working directory")
		}
		dir = parent
	}
}

func loadSpec(root string) error {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return nil
}

// stamp is the environment every result file carries, so two files are
// compared knowing what differed besides the code.
type stamp struct {
	Commit      string `json:"commit"`
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs_generator"`
	ChildProcs  string `json:"gomaxprocs_children"`
	Kernel      string `json:"kernel"`
	CPUModel    string `json:"cpu_model"`
	Degraded    bool   `json:"degraded"`
	DegradedWhy string `json:"degraded_why,omitempty"`
}

func takeStamp(root string) stamp {
	st := stamp{
		Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Kernel: "unknown", CPUModel: "unknown",
	}
	// Children inherit the environment and set nothing themselves.
	st.ChildProcs = "default (nproc)"
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		st.ChildProcs = v + " (inherited GOMAXPROCS)"
	}
	// A checkout without .git (the driver's) has no commit to name.
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		st.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		st.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				st.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if st.NumCPU < loadThreads {
		st.Degraded = true
		st.DegradedWhy = fmt.Sprintf("%d CPU for %d load threads plus the server: numbers are not comparable with a 2-CPU host's", st.NumCPU, loadThreads)
	}
	return st
}
