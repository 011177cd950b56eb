package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cliutil"
)

func TestGateRatio(t *testing.T) {
	for _, tc := range []struct {
		name        string
		fresh, base float64
		fail        bool
	}{
		{"at the floor", 5, 10, false},
		{"above the floor", 9, 10, false},
		{"just below the floor", 4.999, 10, true},
		{"zero fresh", 0, 10, true},
		{"zero baseline", 0, 0, false},
		{"negative baseline", 0, -3, false},
	} {
		err := gateRatio("speedup", tc.fresh, tc.base)
		if (err != nil) != tc.fail {
			t.Errorf("%s: gateRatio(%v, %v) = %v, want failure %v", tc.name, tc.fresh, tc.base, err, tc.fail)
		}
	}
}

func TestReadBaselineErrors(t *testing.T) {
	dir := t.TempDir()
	var doc FPVADoc
	if err := readBaseline(filepath.Join(dir, "missing.json"), &doc); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: err = %v, want os.ErrNotExist", err)
	}
	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte(`{"speedup_template_vs_baseline": `), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := readBaseline(corrupt, &doc); err == nil || !strings.Contains(err.Error(), corrupt) {
		t.Errorf("corrupt JSON: err = %v, want an error naming %s", err, corrupt)
	}
}

// A written artifact reads back through the -baseline path unchanged.
func TestWriteBenchArtifactRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_fpva.json")
	want := FPVADoc{GoMaxProcs: 2, Seed: 1, GateSize: 48, Speedup: 11.1, MinSpeedup: minSpeedup}
	if code := writeBenchArtifact(path, want); code != cliutil.ExitOK {
		t.Fatalf("exit %d, want %d", code, cliutil.ExitOK)
	}
	var got FPVADoc
	if err := readBaseline(path, &got); err != nil {
		t.Fatal(err)
	}
	if got.Speedup != want.Speedup || got.GateSize != want.GateSize || got.MinSpeedup != want.MinSpeedup {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
}

func TestWriteBenchArtifactUncreatable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no-such-dir", "out.json")
	if code := writeBenchArtifact(path, FPVADoc{}); code != cliutil.ExitUsage {
		t.Fatalf("exit %d, want %d", code, cliutil.ExitUsage)
	}
}

// failingCloser accepts every write and fails on Close, like a file whose
// buffered data is lost at close time.
type failingCloser struct{ strings.Builder }

var errClose = errors.New("close failed")

func (*failingCloser) Close() error { return errClose }

func TestEncodeAndCloseReportsCloseError(t *testing.T) {
	w := &failingCloser{}
	if err := encodeAndClose(w, FPVADoc{Seed: 1}); !errors.Is(err, errClose) {
		t.Fatalf("err = %v, want the close error", err)
	}
	if !strings.Contains(w.String(), `"seed": 1`) {
		t.Fatalf("document not written before close: %q", w.String())
	}
}
