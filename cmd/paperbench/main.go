// Command paperbench regenerates every table and figure from the paper's
// evaluation and prints them with the paper's reported values alongside.
//
// Usage:
//
//	paperbench                 # run everything at full scale
//	paperbench -run T3,T4      # only the FIR tables
//	paperbench -run fir-runtime
//	paperbench -quick          # scaled-down sizes (seconds instead of minutes)
//	paperbench -list           # list available experiments
//	paperbench -o results.txt  # also write the output to a file
//
// Experiments run one at a time, in selection order, and each one runs the
// independent simulations of its table concurrently, up to GOMAXPROCS in
// flight, so every core stays busy. Tables are emitted on stdout in
// selection order, so the output bytes are identical whatever GOMAXPROCS
// is. Per-experiment progress and wall-time lines stream to stderr as runs
// finish.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"uvmdiscard/internal/experiments"
)

func main() {
	var (
		run     = flag.String("run", "", "comma-separated experiment IDs or names (default: all)")
		quick   = flag.Bool("quick", false, "scaled-down problem sizes")
		list    = flag.Bool("list", false, "list experiments and exit")
		out     = flag.String("o", "", "also write results to this file")
		csvDir  = flag.String("csv", "", "also write each table as <dir>/<id>.csv for plotting")
		chart   = flag.Bool("chart", false, "render figure experiments as terminal bar charts")
		journal = flag.String("journal", "", "crash-safe batch journal: completed experiments are appended here and skipped on re-run")
	)
	flag.Parse()

	// Interrupt/terminate cancels in-flight simulations at their next driver
	// checkpoint instead of killing the process mid-table; with -journal the
	// finished work is already on disk and a re-run resumes from it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Name)
		}
		return
	}

	var selected []experiments.Experiment
	if *run == "" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			e, ok := experiments.Lookup(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "paperbench: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			os.Exit(1)
		}
	}
	opts := experiments.Options{Quick: *quick, Ctx: ctx}
	fmt.Fprintf(w, "uvmdiscard paperbench — reproducing IISWC'22 \"UVM Discard\" (quick=%v)\n\n", *quick)

	var jnl *experiments.Journal
	if *journal != "" {
		var err error
		jnl, err = experiments.OpenJournal(*journal, *quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			if err := jnl.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "paperbench: journal close: %v\n", err)
			}
		}()
		if n := jnl.Resumed(); n > 0 {
			fmt.Fprintf(os.Stderr, "paperbench: resuming, %d experiments already journaled in %s\n", n, *journal)
		}
	}

	//uvmlint:ignore simdet -- host-side wall time for the progress banner, not simulated time
	started := time.Now()
	done := 0
	results := experiments.RunAll(selected, opts, jnl, func(r experiments.RunResult) {
		done++
		status := "ok"
		switch {
		case r.Resumed:
			status = "resumed"
		case r.Interrupted():
			status = "canceled"
		case r.Err != nil:
			status = "FAILED"
		}
		fmt.Fprintf(os.Stderr, "[%d/%d] %-4s %-28s %s (%v)\n",
			done, len(selected), r.Experiment.ID, r.Experiment.Name,
			status, r.Wall.Round(time.Millisecond))
	})

	// Emit tables in selection order: output bytes are independent of
	// GOMAXPROCS.
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		tbl := r.Table
		fmt.Fprintln(w, tbl.String())
		if *chart && strings.HasPrefix(tbl.ID, "F") {
			if col := tbl.DefaultChartColumn(); col > 0 {
				fmt.Fprintln(w, tbl.Chart(col, 40))
			}
		}
		if *csvDir != "" {
			path := filepath.Join(*csvDir, tbl.ID+".csv")
			if err := os.WriteFile(path, []byte(tbl.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
				os.Exit(1)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "paperbench: %d experiments in %v wall time\n",
		//uvmlint:ignore simdet -- host-side wall time for the summary line, not simulated time
		len(selected), time.Since(started).Round(time.Millisecond))

	// Failures are reported together at the end; a broken experiment never
	// silences the rest of the run.
	if failed := experiments.Failed(results); len(failed) > 0 {
		for _, r := range failed {
			fmt.Fprintf(os.Stderr, "paperbench: %s failed: %v\n", r.Experiment.ID, r.Err)
		}
		os.Exit(1)
	}
}
