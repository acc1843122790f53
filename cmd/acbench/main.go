// Command acbench regenerates every table and figure of the paper's
// evaluation (Section 7) over the reproduction's backends: xquery (native
// XML store), monetsql (column-store relational) and postgres (row-store
// relational).
//
// Usage:
//
//	acbench                      # all experiments, default factors
//	acbench -exp fig12           # one experiment
//	acbench -factors 0.0001,0.001,0.01,0.05
//	acbench -updates 10          # cap the Figure 12 update workload
//
// Experiments: table3, table5, fig9, fig10, fig11, fig12, ablation, all.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"xmlac"
	"xmlac/internal/bench"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: table3, table5, fig9, fig10, fig11, fig12, ablation or all")
		factors  = flag.String("factors", "", "comma-separated xmlgen factors (default 0.0001,0.001,0.01)")
		seed     = flag.Uint64("seed", 1, "document generation seed")
		updates  = flag.Int("updates", 12, "number of delete updates for fig12 (0 = full workload)")
		metrics  = flag.String("metrics", "", "write the run's backend metrics as JSON to this file")
		parallel = flag.Int("parallel", 0, "annotation worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	)
	flag.Parse()
	bench.Parallelism = *parallel

	if *metrics != "" {
		bench.Metrics = xmlac.NewMetricsRegistry()
		defer func() {
			f, err := os.Create(*metrics)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			if err := bench.Metrics.WriteJSON(f); err != nil {
				fail(err)
			}
			fmt.Printf("[metrics written to %s]\n", *metrics)
		}()
	}

	fs := bench.DefaultFactors
	if *factors != "" {
		fs = nil
		for _, part := range strings.Split(*factors, ",") {
			f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				fail(fmt.Errorf("bad factor %q: %w", part, err))
			}
			fs = append(fs, f)
		}
	}

	if err := bench.ValidateWorkload(); err != nil {
		fail(err)
	}

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		start := time.Now()
		if err := fn(); err != nil {
			fail(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	run("table3", func() error {
		fmt.Println("Table 3: redundancy-free hospital policy")
		reduced, removed := xmlac.RemoveRedundant(xmlac.HospitalPolicy())
		for _, r := range reduced.Rules {
			fmt.Printf("  %-3s %-38s %s\n", r.Name, r.Resource, r.Effect)
		}
		for _, r := range removed {
			fmt.Printf("  %-3s (removed: contained in a same-effect rule)\n", r.Name)
		}
		return nil
	})

	run("table5", func() error {
		rows, err := bench.Table5(fs, *seed)
		if err != nil {
			return err
		}
		bench.PrintTable5(os.Stdout, rows)
		return nil
	})

	run("fig9", func() error {
		rows, err := bench.Fig9(fs, *seed)
		if err != nil {
			return err
		}
		bench.PrintFig9(os.Stdout, rows)
		return nil
	})

	run("fig10", func() error {
		rows, err := bench.Fig10(fs, *seed)
		if err != nil {
			return err
		}
		bench.PrintFig10(os.Stdout, rows)
		return nil
	})

	run("fig11", func() error {
		rows, err := bench.Fig11(fs, *seed)
		if err != nil {
			return err
		}
		bench.PrintFig11(os.Stdout, rows)
		return nil
	})

	run("ablation", func() error {
		f := 0.005
		if len(fs) > 0 {
			f = fs[len(fs)-1]
		}
		rep, err := bench.Ablation(f, *seed)
		if err != nil {
			return err
		}
		bench.PrintAblation(os.Stdout, rep)
		return nil
	})

	run("fig12", func() error {
		rows, err := bench.Fig12(fs, *seed, *updates)
		if err != nil {
			return err
		}
		bench.PrintFig12(os.Stdout, rows)
		return nil
	})
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "acbench:", err)
	os.Exit(1)
}
