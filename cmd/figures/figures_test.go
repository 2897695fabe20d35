package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/ from this build's output")

// sections are the -quick outputs TestGolden holds, one file each in
// testdata/.
var sections = []struct{ name, flag, value string }{
	{"fig1", "-fig", "1"}, {"fig2", "-fig", "2"}, {"fig4", "-fig", "4"}, {"fig5", "-fig", "5"},
	{"table1", "-table", "1"},
	{"e5", "-exp", "e5"}, {"e6", "-exp", "e6"}, {"e8", "-exp", "e8"}, {"e9", "-exp", "e9"},
	{"e10", "-exp", "e10"}, {"e11", "-exp", "e11"}, {"e12", "-exp", "e12"},
	{"a1", "-ablation", "a1"}, {"a2", "-ablation", "a2"}, {"a3", "-ablation", "a3"},
	{"a4", "-ablation", "a4"}, {"a5", "-ablation", "a5"},
}

// hostTime names, per section, the table columns that hold host
// wall-clock time rather than simulated results; mask blanks them.
var hostTime = map[string][]string{
	"e11": {"round-ms"},          // wall time of one sharded swarm round
	"e12": {"Mev/s", "ns/event"}, // scheduler throughput on this host
}

// TestGolden replays every simulated section of figures at -quick, at
// -parallel 1 and at -parallel 4, and compares it byte for byte with
// testdata/<section>.txt, the host-time columns of hostTime aside.
// go test -run TestGolden -update rewrites the files, so a change that
// moves a number shows the move in its diff.
//
// Left out: E15–E17, whose fleets are 20k–100k provers even at -quick
// and which TestE15Small, TestE16Small and TestE17Small already check
// phase by phase. It skips under -race (the same answer, many times
// slower) and skips E12 under -short.
func TestGolden(t *testing.T) {
	if bi, _ := debug.ReadBuildInfo(); bi != nil && strings.Contains(fmt.Sprint(bi.Settings), "{-race true}") {
		t.Skip("replays whole simulations: the same answer, many times slower under -race")
	}
	for _, s := range sections {
		t.Run(s.name, func(t *testing.T) {
			if s.name == "e12" && testing.Short() {
				t.Skip("a 1,000-device fleet over eight virtual hours")
			}
			path := filepath.Join("testdata", s.name+".txt")
			for _, par := range []string{"1", "4"} {
				var out bytes.Buffer
				if err := run([]string{s.flag, s.value, "-quick", "-parallel", par}, &out); err != nil {
					t.Fatal(err)
				}
				if *update && par == "1" {
					if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := mask(out.String(), hostTime[s.name]), mask(string(want), hostTime[s.name]); got != want {
					t.Errorf("-parallel %s: output differs from %s\n got:\n%s\nwant:\n%s", par, path, got, want)
				}
			}
		})
	}
}

// mask replaces, in the table whose header names every column of cols,
// those columns' cells with "*". A row of that table is a line after the
// header with as many fields as the header; the masked rows are compared
// field by field, every other line byte for byte.
func mask(out string, cols []string) string {
	if len(cols) == 0 {
		return out
	}
	lines := strings.Split(out, "\n")
	var idx []int // masked field positions; set once the header is found
	width := 0
	for i, line := range lines {
		fields := strings.Fields(line)
		switch {
		case idx == nil:
			for _, c := range cols {
				for j, f := range fields {
					if f == c {
						idx = append(idx, j)
					}
				}
			}
			if len(idx) != len(cols) {
				idx = nil
			}
			width = len(fields)
		case len(fields) == width:
			for _, j := range idx {
				fields[j] = "*"
			}
			lines[i] = strings.Join(fields, " ")
		default:
			return strings.Join(lines, "\n") // the table ended
		}
	}
	return strings.Join(lines, "\n")
}
