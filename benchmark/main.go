// Command benchmark is the one benchmark of the whole system: six named
// workloads over the library and the HTTP server, end-to-end metrics from
// untraced runs, per-layer metrics from a traced run and a direct probe of
// each layer, and an oracle that checks every answer. BENCHMARK.json at the
// repository root names the command, the workloads and every metric;
// README.md explains the choices.
//
//	bash benchmark/run.sh --workload flat_io --seed 3 --seconds 10 --trace 0
//
// prints, as the last line of standard output, one JSON object with the keys
// correct, attempted, failed and metrics. Further modes:
//
//	--workload all --trace 2 -repeat 5 -out report.json   every workload, both modes, five times
//	-compare old.json new.json                            verdict per (workload, end-to-end metric)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// environment records where a report was measured.
type environment struct {
	NumCPU     int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Points     int     `json:"points"`
	Seconds    float64 `json:"seconds"`
}

// report is what -out writes and -compare reads.
type report struct {
	Env  environment  `json:"env"`
	Runs []*runRecord `json:"runs"`
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		workload = flag.String("workload", "all", "workload name from BENCHMARK.json, or all")
		seed     = flag.Int64("seed", 1, "workload seed: arrival order, client assignment, inserted vectors")
		seconds  = flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run; 2: both, one after the other")
		repeat   = flag.Int("repeat", 1, "complete runs per workload (with -trace 2: untraced runs; the traced run is made once)")
		out      = flag.String("out", "", "write every run to this report file (JSON)")
		traceOut = flag.String("trace-out", "", "write the spans of the (last) traced run to this file (JSON lines)")
		compare  = flag.Bool("compare", false, "compare two report files: -compare old.json new.json")
	)
	flag.Parse()

	man, err := loadManifest()
	if err != nil {
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two report files")
		}
		return compareReports(os.Stdout, man, flag.Arg(0), flag.Arg(1))
	}
	if *seconds <= 0 {
		*seconds = float64(man.RunSeconds)
	}
	if *trace < 0 || *trace > 2 || *repeat < 1 {
		return fmt.Errorf("bad -trace or -repeat")
	}

	var defs []*workloadDef
	for _, w := range man.Workloads {
		def := findWorkload(w.Name)
		if def == nil {
			return fmt.Errorf("BENCHMARK.json names workload %q, which this program does not have", w.Name)
		}
		if *workload == "all" || *workload == w.Name {
			defs = append(defs, def)
		}
	}
	if len(defs) == 0 {
		return fmt.Errorf("unknown workload %q", *workload)
	}

	// All load comes from this one process; a front-end box is small.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	// Everything a run writes lives under one scratch directory inside the
	// checkout, removed on the way out.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if dir, err = filepath.Abs(dir); err != nil {
		return err
	}

	cfg := &config{n: defaultN, seed: *seed, seconds: *seconds, scale: 1, dir: dir}
	rep := &report{Env: environment{
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Points: defaultN, Seconds: *seconds,
	}}
	modes := []bool{*trace == 1}
	if *trace == 2 {
		modes = []bool{false, true}
	}
	for _, def := range defs {
		for _, traced := range modes {
			runs := *repeat
			if traced && len(modes) > 1 {
				runs = 1
			}
			for r := 0; r < runs; r++ {
				rec, err := runOne(man, def, cfg, traced, *traceOut)
				if err != nil {
					return err
				}
				rep.Runs = append(rep.Runs, rec)
				if rec.Error != "" {
					fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d operations failed, first: %s\n", def.name, rec.Failed, rec.Attempted, rec.Error)
				}
				if len(defs) > 1 || len(modes) > 1 || *repeat > 1 {
					fmt.Fprintf(os.Stderr, "benchmark: %s trace=%d run %d/%d done in %.1f s\n", def.name, rec.Trace, r+1, runs, rec.WallS)
				}
			}
		}
	}
	if *out != "" {
		raw, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(rep.Runs) == 1 {
		// The contract's form: exactly one object, as the last line.
		return json.NewEncoder(os.Stdout).Encode(rep.Runs[0].result)
	}
	printSummary(os.Stdout, man, rep)
	return nil
}
