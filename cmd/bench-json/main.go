// bench-json converts `go test -bench` output into a stable JSON artifact
// so benchmark runs can be diffed across commits. Each benchmark line
// becomes a name → {unit → value} object, including Go's built-in ns/op,
// B/op, and allocs/op as well as the custom solver metrics the benchmarks
// report (gates/op, clauses/op, pruned-queries/op, enum-queries/op, ...).
//
// The output file holds named sections (typically "baseline" recorded
// before an optimization and "current" after), merged across invocations:
//
//	go test -run NONE -bench Table1 -benchmem . | bench-json -out BENCH.json -as current
//
// The -compare mode reads two recorded artifacts instead of benchmark
// output and prints per-benchmark speedup ratios (old ns/op over new),
// so a PR can state "N× on row X vs the committed artifact" from data:
//
//	bench-json -compare BENCH_3.json -out BENCH_6.json -as current
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

var nameSuffix = regexp.MustCompile(`-\d+$`) // the -GOMAXPROCS suffix

// parseBench extracts benchmark result lines from go test output. The
// artifact holds one sample per benchmark, so a name that appears twice
// (go test -count=N) is an error rather than a silently dropped sample.
func parseBench(r io.Reader) (map[string]map[string]float64, error) {
	out := make(map[string]map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// name, iterations, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		name := nameSuffix.ReplaceAllString(fields[0], "")
		iters, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("%s appears more than once (go test -count or -cpu with several values?); the artifact keeps one sample per benchmark, so record repeated samples with the end-to-end benchmark in bench/", name)
		}
		m := map[string]float64{"iterations": iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in line %q", fields[i], line)
			}
			// json.Marshal rejects NaN/Inf outright; catch them here with
			// the offending line so the artifact is never half-written.
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("non-finite value %q in line %q", fields[i], line)
			}
			m[fields[i+1]] = v
		}
		out[name] = m
	}
	return out, sc.Err()
}

// loadSection reads one named section out of a bench-json artifact.
func loadSection(file, section string) (map[string]map[string]float64, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	doc := make(map[string]map[string]map[string]float64)
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s is not a bench-json artifact: %v", file, err)
	}
	sec, ok := doc[section]
	if !ok {
		return nil, fmt.Errorf("%s has no %q section", file, section)
	}
	return sec, nil
}

// usableBaseline reports whether an old-artifact ns/op can serve as a
// ratio denominator: present, finite, and positive. A zero or NaN
// baseline would print a +Inf/NaN "speedup", which then gets pasted into
// PR descriptions as if it meant something.
func usableBaseline(m map[string]float64) bool {
	v, ok := m["ns/op"]
	return ok && !math.IsNaN(v) && !math.IsInf(v, 0) && v > 0
}

// compareArtifacts prints the per-benchmark speedup of newFile over
// oldFile (same section in both): ratios above 1 mean the new recording
// is faster. Benchmarks whose baseline is missing or unusable (absent
// entry, zero or non-finite ns/op) are marked "baseline-missing" and make
// the comparison fail, so CI can't silently report speedups against a
// truncated or corrupt baseline artifact; benchmarks that disappeared
// from the new recording are listed as "gone" but are not an error.
func compareArtifacts(w io.Writer, oldFile, newFile, section string) error {
	oldSec, err := loadSection(oldFile, section)
	if err != nil {
		return err
	}
	newSec, err := loadSection(newFile, section)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(oldSec)+len(newSec))
	for n := range oldSec {
		names = append(names, n)
	}
	for n := range newSec {
		if _, ok := oldSec[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	missing := 0
	fmt.Fprintf(w, "%-45s %14s %14s %9s\n", "benchmark", "old ns/op", "new ns/op", "speedup")
	for _, n := range names {
		o, inOld := oldSec[n]
		c, inNew := newSec[n]
		switch {
		case !inOld:
			missing++
			fmt.Fprintf(w, "%-45s %14s %14.0f %9s\n", n, "-", c["ns/op"], "baseline-missing")
		case !inNew:
			fmt.Fprintf(w, "%-45s %14.0f %14s %9s\n", n, o["ns/op"], "-", "gone")
		case !usableBaseline(o):
			missing++
			fmt.Fprintf(w, "%-45s %14.0f %14.0f %9s\n", n, o["ns/op"], c["ns/op"], "baseline-missing")
		case c["ns/op"] == 0:
			fmt.Fprintf(w, "%-45s %14.0f %14.0f %9s\n", n, o["ns/op"], c["ns/op"], "?")
		default:
			fmt.Fprintf(w, "%-45s %14.0f %14.0f %8.2fx\n", n, o["ns/op"], c["ns/op"], o["ns/op"]/c["ns/op"])
		}
	}
	if missing > 0 {
		return fmt.Errorf("%d benchmark(s) lack a usable baseline in %s", missing, oldFile)
	}
	return nil
}

func main() {
	var (
		outFile = flag.String("out", "BENCH_3.json", "JSON artifact to create or merge into")
		section = flag.String("as", "current", "section to record the parsed results under (e.g. baseline, current)")
		inFile  = flag.String("in", "-", "benchmark output to parse (- = stdin)")
		compare = flag.String("compare", "", "old artifact to diff against: print old/new ns/op speedups between its -as section and -out's, recording nothing")
	)
	flag.Parse()

	if *compare != "" {
		if err := compareArtifacts(os.Stdout, *compare, *outFile, *section); err != nil {
			fmt.Fprintln(os.Stderr, "bench-json:", err)
			os.Exit(1)
		}
		return
	}

	in := io.Reader(os.Stdin)
	if *inFile != "-" {
		f, err := os.Open(*inFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench-json:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	parsed, err := parseBench(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-json:", err)
		os.Exit(1)
	}
	if len(parsed) == 0 {
		fmt.Fprintln(os.Stderr, "bench-json: no benchmark lines found in input")
		os.Exit(1)
	}

	doc := make(map[string]map[string]map[string]float64)
	if data, err := os.ReadFile(*outFile); err == nil {
		if err := json.Unmarshal(data, &doc); err != nil {
			fmt.Fprintf(os.Stderr, "bench-json: %s exists but is not a bench-json artifact: %v\n", *outFile, err)
			os.Exit(1)
		}
	}
	doc[*section] = parsed

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-json:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*outFile, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench-json:", err)
		os.Exit(1)
	}

	names := make([]string, 0, len(parsed))
	for n := range parsed {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("recorded %d benchmarks under %q in %s\n", len(names), *section, *outFile)
	for _, n := range names {
		fmt.Printf("  %-45s %12.0f ns/op\n", n, parsed[n]["ns/op"])
	}
}
