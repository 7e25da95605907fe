package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"uvmdiscard/internal/experiments"
)

// golden.json maps an op's golden key to the SHA-256 of the output the
// seed commit produced for it: every full-size and quick paper table, every
// quick uvmsimd run summary and batch table, and every fleet job output.
// Regenerate with `bash _perfbench/run.sh -regen-golden`.

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// checkOutput reports whether out matches the golden digest of key; in
// record mode it stores the digest instead.
func (e *env) checkOutput(key, out string) bool {
	if e.record != nil {
		e.recordMu.Lock()
		defer e.recordMu.Unlock()
		e.record[key] = digest(out)
		return true
	}
	want, ok := e.golden[key]
	return ok && want == digest(out)
}

func readGolden(path string) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g map[string]string
	return g, json.Unmarshal(b, &g)
}

func writeGolden(path string, g map[string]string) error {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// goldenDigests runs every distinct op once and records its output digest.
func goldenDigests(e *env) (map[string]string, error) {
	e.record = map[string]string{}
	if err := everyOp(e, false); err != nil {
		return nil, err
	}
	if e.tally.failed > 0 {
		return nil, fmt.Errorf("%d ops failed while recording, first: %s", e.tally.failed, e.tally.reasons[0])
	}
	return e.record, nil
}

// everyOp runs every distinct op the generators can emit, once: each paper
// artifact at full and quick size, each quick uvmsimd run and batch, and
// each fleet artifact. With variants it also runs the ops whose output must
// equal another op's: a checkpointed run of every FIR point and a resumed
// run of every batch.
func everyOp(e *env, variants bool) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, x := range experiments.All() {
		for _, quick := range []bool{false, true} {
			key := "paper/" + x.ID
			if quick {
				key = "paper-quick/" + x.ID
			}
			tbl, err := x.Run(experiments.Options{Ctx: ctx, Quick: quick})
			e.tally.add(err == nil && e.checkOutput(key, tbl.String()), fmt.Sprintf("%s: %v", key, err))
		}
	}

	d, c, _, err := startSimd(e, 0)
	if err != nil {
		return err
	}
	defer d.stop()
	var ops []simdOp
	for _, op := range quickGrid() {
		ops = append(ops, op)
		if variants && op.Workload == "fir" {
			op.Kind, op.Name = "ckpt", fmt.Sprintf("every-%s-%d", op.System, op.Ovsp)
			ops = append(ops, op)
		}
	}
	for i, sel := range batchSelections {
		op := simdOp{Kind: "batch", Batch: sel, Name: fmt.Sprintf("every-%d", i)}
		ops = append(ops, op)
		if variants {
			op.Kind = "resume"
			ops = append(ops, op)
		}
	}
	ops = append(ops, simdOp{Kind: "scrape"})
	for _, op := range ops {
		r := c.do(e, nil, op, "every")
		e.tally.add(r.ok, r.reason)
	}

	f, _, err := startFleet(ctx, e, 0)
	if err != nil {
		return err
	}
	defer f.d.stop()
	for _, id := range fleetArtifacts {
		r := f.job(ctx, e, nil, id, "every")
		e.tally.add(r.ok, r.reason)
	}
	return nil
}
