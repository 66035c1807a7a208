package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func mustGenBatch(t *testing.T, opts GenBatchOptions) {
	t.Helper()
	if _, err := GenBatch(opts); err != nil {
		t.Fatal(err)
	}
}

func mkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func mkdirAndMove(base, dir, from, to string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.Rename(filepath.Join(base, from), filepath.Join(dir, to))
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestWatchProcessesBatches(t *testing.T) {
	dir := t.TempDir()
	bundle := filepath.Join(dir, "bundle")
	trainSmallBundle(t, bundle)
	watchDir := filepath.Join(dir, "spool")
	mustGenBatch(t, GenBatchOptions{
		Dataset: "income", Rows: 400, OutCSV: filepath.Join(dir, "tmp-a.csv"), Seed: 1, WithLabels: true,
	})
	// Stage the files into the watch dir before starting.
	if err := mkdirAndMove(dir, watchDir, "tmp-a.csv", "01-clean.csv"); err != nil {
		t.Fatal(err)
	}
	mustGenBatch(t, GenBatchOptions{
		Dataset: "income", Corrupt: "scaling", Magnitude: 0.95,
		Rows: 400, OutCSV: filepath.Join(watchDir, "02-broken.csv"), Seed: 2, WithLabels: true,
	})

	var out bytes.Buffer
	mon, run, err := PrepareWatch(WatchOptions{
		BundleDir:  bundle,
		WatchDir:   watchDir,
		Interval:   10 * time.Millisecond,
		Labeled:    true,
		MaxBatches: 2,
		Out:        &out,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(); err != nil {
		t.Fatal(err)
	}
	log := out.String()
	if !strings.Contains(log, "01-clean.csv") || !strings.Contains(log, "02-broken.csv") {
		t.Fatalf("log missing batches:\n%s", log)
	}
	if !strings.Contains(log, "ALARM") {
		t.Fatalf("catastrophic batch did not alarm:\n%s", log)
	}
	s := mon.Summarize()
	if s.Batches != 2 || s.Violations < 1 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestWatchSkipsMalformedCSV(t *testing.T) {
	dir := t.TempDir()
	bundle := filepath.Join(dir, "bundle")
	trainSmallBundle(t, bundle)
	watchDir := filepath.Join(dir, "spool")
	if err := mkdirAll(watchDir); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(filepath.Join(watchDir, "01-bad.csv"), "not,a,valid\nschema\n"); err != nil {
		t.Fatal(err)
	}
	mustGenBatch(t, GenBatchOptions{
		Dataset: "income", Rows: 200, OutCSV: filepath.Join(watchDir, "02-good.csv"), Seed: 3, WithLabels: true,
	})

	var out bytes.Buffer
	mon, run, err := PrepareWatch(WatchOptions{
		BundleDir:  bundle,
		WatchDir:   watchDir,
		Interval:   10 * time.Millisecond,
		Labeled:    true,
		MaxBatches: 2,
		Out:        &out,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "SKIPPED") {
		t.Fatalf("malformed CSV not skipped:\n%s", out.String())
	}
	if mon.Summarize().Batches != 1 {
		t.Fatalf("summary = %+v", mon.Summarize())
	}
}

func TestWatchMissingDirErrors(t *testing.T) {
	dir := t.TempDir()
	bundle := filepath.Join(dir, "bundle")
	trainSmallBundle(t, bundle)
	_, run, err := PrepareWatch(WatchOptions{
		BundleDir:  bundle,
		WatchDir:   filepath.Join(dir, "nope"),
		MaxBatches: 1,
		Out:        &bytes.Buffer{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(); err == nil {
		t.Fatal("missing watch dir should error")
	}
}
