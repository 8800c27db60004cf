// ebc-bench regenerates the paper's tables and figures (and the ablation
// studies) on the scaled synthetic fixtures. Examples:
//
//	ebc-bench -list
//	ebc-bench -exp fig11
//	ebc-bench -all -scale full -out results.txt
//	ebc-bench -batch BENCH_3.json -cpuprofile batch.prof
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"exploitbit/internal/bench"
)

// main only parses profiling flags and exits with run's code — the defers
// that flush profiles live in run, where os.Exit cannot skip them.
func main() {
	var (
		exp        = flag.String("exp", "", "experiment id to run (fig1..fig16, tab3, tab4, abl-*)")
		all        = flag.Bool("all", false, "run every experiment")
		list       = flag.Bool("list", false, "list experiments and exit")
		scale      = flag.String("scale", "quick", "fixture scale: quick | full")
		out        = flag.String("out", "", "write output to file instead of stdout")
		dir        = flag.String("dir", "", "directory for disk files (default: temp)")
		batch      = flag.String("batch", "", "run the batch-search coalescing scenario and write the JSON report to this path")
		adaptive   = flag.String("adaptive", "", "run the static-vs-adaptive-τ drift scenario and write the JSON report to this path")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this path")
		memprofile = flag.String("memprofile", "", "write a heap profile taken after the run to this path")
	)
	flag.Parse()

	os.Exit(run(*exp, *all, *list, *scale, *out, *dir, *batch, *adaptive, *cpuprofile, *memprofile))
}

func run(exp string, all, list bool, scale, out, dir, batch, adaptive, cpuprofile, memprofile string) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "ebc-bench:", err)
		return 1
	}

	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if memprofile != "" {
		defer func() {
			f, err := os.Create(memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ebc-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile reflects live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "ebc-bench:", err)
			}
		}()
	}

	if list {
		for _, ex := range bench.Experiments() {
			fmt.Printf("%-14s %s\n", ex.ID, ex.Title)
		}
		return 0
	}

	var sc bench.Scale
	switch scale {
	case "quick":
		sc = bench.Quick
	case "full":
		sc = bench.Full
	default:
		fmt.Fprintf(os.Stderr, "ebc-bench: unknown scale %q (quick|full)\n", scale)
		return 2
	}

	var w io.Writer = os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	env := bench.NewEnv(sc, dir)
	defer env.Close()

	var err error
	switch {
	case batch != "":
		_, err = bench.RunBatch(w, env, batch)
	case adaptive != "":
		_, err = bench.RunAdaptive(w, env, adaptive)
	case all:
		err = bench.RunAll(w, env)
	case exp != "":
		err = bench.Run(w, env, exp)
	default:
		fmt.Fprintln(os.Stderr, "ebc-bench: pass -exp <id>, -all, -batch <path>, -adaptive <path>, or -list (fast-path rates, the slab layout, shard scaling and live ingest are benchmark/ workloads: bash benchmark/run.sh)")
		return 2
	}
	if err != nil {
		return fail(err)
	}
	return 0
}
