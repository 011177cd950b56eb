package main

import (
	"encoding/json"
	"io"
	"os"

	"repro/internal/cliutil"
)

// writeBenchArtifact serializes one benchmark report document as indented
// JSON to outFile ("" = stdout) and returns the process exit code. Every
// bench mode funnels its report through here so the artifacts share
// encoder settings: two-space indent and struct-declaration field order
// (encoding/json emits struct fields in declaration order), which keeps
// committed BENCH_*.json files diffable across regenerations.
func writeBenchArtifact(outFile string, doc any) int {
	var err error
	if outFile == "" {
		err = encodeArtifact(os.Stdout, doc)
	} else {
		f, cerr := os.Create(outFile)
		if cerr != nil {
			return cliutil.Usagef(tool, "%v", cerr)
		}
		err = encodeAndClose(f, doc)
	}
	if err != nil {
		return cliutil.Fail(tool, err)
	}
	return cliutil.ExitOK
}

// encodeAndClose encodes doc to w and closes it, returning the first
// error: a failed close can lose buffered data, so it must fail the run
// rather than leave a truncated artifact behind a zero exit.
func encodeAndClose(w io.WriteCloser, doc any) error {
	err := encodeArtifact(w, doc)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return err
}

func encodeArtifact(w io.Writer, doc any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
