// Command imcbench regenerates the paper's evaluation tables and
// figures (Table I, Figures 4–8) against the synthetic dataset analogs
// and prints each as an aligned text table.
//
// Usage:
//
//	imcbench -experiment table1
//	imcbench -experiment fig5 -scale 0.2 -runs 3
//	imcbench -experiment all -scale 0.05
//
// -benchcore instead runs the solver-kernel microbenchmarks (RIC
// sample generation, one Estimate draw, the greedy seed-selection scans
// and BT) and writes a machine-readable JSON report; -benchbase merges
// an earlier report in as the before column, pinning a kernel change's
// before/after deltas.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"imc/internal/diffusion"
	"imc/internal/expt"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "imcbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		experiment = flag.String("experiment", "all", "table1|fig4|fig5|fig6|fig7|fig8|convergence|extensions|all|report")
		scale      = flag.Float64("scale", 0.1, "dataset scale in (0, 1]")
		runs       = flag.Int("runs", 1, "repetitions to average (paper: 10)")
		seed       = flag.Uint64("seed", 42, "random seed")
		maxSamp    = flag.Int("maxsamples", 1<<16, "RIC sample cap per run")
		evalTMax   = flag.Int("evaltmax", 1<<16, "benefit-evaluation sample cap")
		btRoots    = flag.Int("btroots", 64, "BT root cap inside MB (0 = all)")
		ksFlag     = flag.String("ks", "", "comma-separated k sweep override, e.g. 5,10,20")
		capsFlag   = flag.String("caps", "", "comma-separated size-cap sweep override (fig4)")
		dsFlag     = flag.String("datasets", "", "comma-separated dataset override")
		format     = flag.String("format", "table", "output format: table|csv|plot")
		model      = flag.String("model", "IC", "propagation model: IC|LT")
		scaleFor   = flag.String("scalefor", "", "per-dataset scale overrides, e.g. facebook=1.0,pokec=0.05")
		checkpoint = flag.String("checkpoint", "", "JSONL checkpoint file: finished cells are persisted and reused on re-runs")
		benchCore  = flag.String("benchcore", "", "write solver-kernel microbenchmarks (ns/op, allocs/op) to this JSON file and exit")
		benchBase  = flag.String("benchbase", "", "earlier -benchcore file; its numbers become the before column")
	)
	flag.Parse()

	if *benchCore != "" {
		return runBenchCore(*benchCore, *benchBase)
	}

	diffModel := diffusion.IC
	if strings.EqualFold(*model, "LT") {
		diffModel = diffusion.LT
	}
	cfg := expt.Config{
		Scale: *scale,
		Run: expt.RunConfig{
			Seed:       *seed,
			Runs:       *runs,
			MaxSamples: *maxSamp,
			EvalTMax:   *evalTMax,
			BTMaxRoots: *btRoots,
			Model:      diffModel,
		},
	}
	var err error
	if cfg.Ks, err = parseInts(*ksFlag); err != nil {
		return fmt.Errorf("bad -ks: %w", err)
	}
	if cfg.SizeCaps, err = parseInts(*capsFlag); err != nil {
		return fmt.Errorf("bad -caps: %w", err)
	}
	if *dsFlag != "" {
		cfg.Datasets = strings.Split(*dsFlag, ",")
	}
	if *scaleFor != "" {
		cfg.ScaleFor = make(map[string]float64)
		for _, pair := range strings.Split(*scaleFor, ",") {
			name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok {
				return fmt.Errorf("bad -scalefor entry %q (want name=scale)", pair)
			}
			s, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return fmt.Errorf("bad -scalefor scale in %q: %w", pair, err)
			}
			cfg.ScaleFor[name] = s
		}
	}

	if *checkpoint != "" {
		ck, err := expt.OpenCheckpoint(*checkpoint)
		if err != nil {
			return err
		}
		defer ck.Close()
		if n := ck.Len(); n > 0 {
			fmt.Fprintf(os.Stderr, "imcbench: resuming, %d cells already complete\n", n)
		}
		cfg.Checkpoint = ck
	}
	if *experiment == "report" {
		return expt.WriteReport(os.Stdout, cfg)
	}
	targets := []string{*experiment}
	if *experiment == "all" {
		targets = []string{"table1", "fig4", "fig5", "fig6", "fig7", "fig8"}
	}
	for _, target := range targets {
		if err := runOne(target, cfg, *format); err != nil {
			return fmt.Errorf("%s: %w", target, err)
		}
		fmt.Println()
	}
	return nil
}

func runOne(target string, cfg expt.Config, format string) error {
	if target == "table1" {
		rows, err := expt.Table1(cfg)
		if err != nil {
			return err
		}
		return expt.RenderTable1(os.Stdout, rows)
	}
	var (
		rows  []expt.Row
		title string
		err   error
	)
	switch target {
	case "fig4":
		title = "Fig 4: benefit vs community structure (k=10)"
		rows, err = expt.Fig4(cfg)
	case "fig5":
		title = "Fig 5: benefit vs k, regular thresholds (h=50%)"
		rows, err = expt.Fig5(cfg)
	case "fig6":
		title = "Fig 6: benefit vs k, bounded thresholds (h=2)"
		rows, err = expt.Fig6(cfg)
	case "fig7":
		title = "Fig 7: seed-selection runtime on the large datasets"
		rows, err = expt.Fig7(cfg)
	case "fig8":
		title = "Fig 8: UBG sandwich ratio c(S_ν)/ν(S_ν) vs k"
		rows, err = expt.Fig8(cfg)
	case "convergence":
		title = "Convergence: ĉ_R vs pool size (ratio column = relative error to MC)"
		rows, err = expt.Convergence(cfg)
	case "extensions":
		title = "Extensions: UBG+LS and DD vs the paper's solvers (bounded thresholds)"
		rows, err = expt.Extensions(cfg)
	default:
		return fmt.Errorf("unknown experiment %q", target)
	}
	if err != nil {
		return err
	}
	switch format {
	case "csv":
		return expt.RenderRowsCSV(os.Stdout, rows)
	case "plot":
		return expt.RenderRowsPlot(os.Stdout, title, rows)
	default:
		return expt.RenderRows(os.Stdout, title, rows)
	}
}

func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
