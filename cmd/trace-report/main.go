// trace-report is the offline profiler for dfcheck trace files: it reads
// the Chrome trace-event JSON written by -trace (including rotated
// siblings), reconstructs the span hierarchy from the id/parent links,
// and prints hotspot tables — time and solver conflicts grouped by
// analysis, by root IR opcode, by bitwidth, and by query class — plus
// the top-N most expensive expressions, collapsed by canonical hash so a
// duplicated expression appears once with its total cost.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// event is one Chrome trace record ("X" spans and "M" metadata alike).
type event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
}

// span is one reconstructed "X" event with its links decoded.
type span struct {
	event
	id, parent int64
	hasParent  bool
}

func (s *span) argInt(key string) int64 {
	if v, ok := s.Args[key].(float64); ok {
		return int64(v)
	}
	return 0
}

func (s *span) argStr(key string) string {
	v, _ := s.Args[key].(string)
	return v
}

// loadFile parses one trace file into spans.
func loadFile(path string) ([]*span, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var evs []event
	if err := json.Unmarshal(data, &evs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var out []*span
	for _, ev := range evs {
		if ev.Ph != "X" {
			continue
		}
		s := &span{event: ev}
		if v, ok := ev.Args["id"].(float64); ok {
			s.id = int64(v)
		}
		if v, ok := ev.Args["parent"].(float64); ok {
			s.parent, s.hasParent = int64(v), true
		}
		out = append(out, s)
	}
	return out, nil
}

// load reads each named file plus any rotated siblings (path.1, path.2,
// …). Rotated files come from the same tracer, so their span ids share
// one namespace; the id/parent links are what let a child in trace.json.2
// find its parent emitted into trace.json.
func load(paths []string) ([]*span, int, error) {
	var all []*span
	files := 0
	for _, p := range paths {
		spans, err := loadFile(p)
		if err != nil {
			return nil, 0, err
		}
		all = append(all, spans...)
		files++
		for i := 1; ; i++ {
			sib := fmt.Sprintf("%s.%d", p, i)
			if _, err := os.Stat(sib); err != nil {
				break
			}
			spans, err := loadFile(sib)
			if err != nil {
				return nil, 0, err
			}
			all = append(all, spans...)
			files++
		}
	}
	return all, files, nil
}

// bucket accumulates one grouping row.
type bucket struct {
	Key       string  `json:"key"`
	Count     int64   `json:"count"`
	Us        float64 `json:"time_us"`
	Conflicts int64   `json:"conflicts"`
}

type table []*bucket

func (tb *table) add(key string, us float64, conflicts int64) {
	for _, b := range *tb {
		if b.Key == key {
			b.Count++
			b.Us += us
			b.Conflicts += conflicts
			return
		}
	}
	*tb = append(*tb, &bucket{Key: key, Count: 1, Us: us, Conflicts: conflicts})
}

func (tb table) sorted() table {
	sort.SliceStable(tb, func(i, j int) bool { return tb[i].Us > tb[j].Us })
	return tb
}

// exprCost is one canonical expression's aggregate over all duplicates.
type exprCost struct {
	Hash      string  `json:"hash"`
	Opcode    string  `json:"opcode"`
	Width     int64   `json:"width"`
	Count     int64   `json:"count"`
	Us        float64 `json:"time_us"`
	Conflicts int64   `json:"conflicts"`
	Key       string  `json:"key"`
}

// report is the full aggregation, also the -json output shape.
type report struct {
	Files      int         `json:"files"`
	Spans      int         `json:"spans"`
	WallUs     float64     `json:"wall_us"`        // total root-span time
	ExprUs     float64     `json:"expr_us"`        // total expression time
	ByAnalysis table       `json:"by_analysis"`    // cat=analysis, by name
	ByOpcode   table       `json:"by_opcode"`      // cat=expr, by root opcode
	ByWidth    table       `json:"by_width"`       // cat=expr, by bitwidth
	ByClass    table       `json:"by_query_class"` // cat=query, by class
	TopExprs   []*exprCost `json:"top_exprs"`
	QueryCount int64       `json:"queries"`
	QueryUs    float64     `json:"query_us"`
	Conflicts  int64       `json:"conflicts"` // summed over query spans
}

func aggregate(spans []*span, topN int) *report {
	rep := &report{Spans: len(spans)}
	byHash := map[string]*exprCost{}
	for _, s := range spans {
		switch s.Cat {
		case "batch":
			// Only roots count toward wall clock: a campaign's per-batch
			// spans nest under its root and must not double-count.
			if !s.hasParent {
				rep.WallUs += s.Dur
			}
		case "expr":
			rep.ExprUs += s.Dur
			conflicts := s.argInt("conflicts")
			rep.ByOpcode.add(s.Name, s.Dur, conflicts)
			rep.ByWidth.add(fmt.Sprintf("i%d", s.argInt("width")), s.Dur, conflicts)
			h := s.argStr("hash")
			ec := byHash[h]
			if ec == nil {
				ec = &exprCost{Hash: h, Opcode: s.Name, Width: s.argInt("width"), Key: s.argStr("key")}
				byHash[h] = ec
			}
			ec.Count++
			ec.Us += s.Dur
			ec.Conflicts += conflicts
		case "analysis":
			rep.ByAnalysis.add(s.Name, s.Dur, 0)
		case "query":
			conflicts := s.argInt("conflicts")
			rep.ByClass.add(s.argStr("class"), s.Dur, conflicts)
			rep.QueryCount++
			rep.QueryUs += s.Dur
			rep.Conflicts += conflicts
		}
	}
	// Query conflicts roll up into the enclosing analysis rows via the
	// parent chain (analysis spans do not carry counters themselves).
	index := make(map[int64]*span, len(spans))
	for _, s := range spans {
		index[s.id] = s
	}
	for _, s := range spans {
		if s.Cat != "query" {
			continue
		}
		for cur := s; cur.hasParent; {
			cur = index[cur.parent]
			if cur == nil {
				break
			}
			if cur.Cat == "analysis" {
				for _, b := range rep.ByAnalysis {
					if b.Key == cur.Name {
						b.Conflicts += s.argInt("conflicts")
					}
				}
				break
			}
		}
	}
	rep.ByAnalysis = rep.ByAnalysis.sorted()
	rep.ByOpcode = rep.ByOpcode.sorted()
	rep.ByWidth = rep.ByWidth.sorted()
	rep.ByClass = rep.ByClass.sorted()

	for _, ec := range byHash {
		rep.TopExprs = append(rep.TopExprs, ec)
	}
	sort.SliceStable(rep.TopExprs, func(i, j int) bool { return rep.TopExprs[i].Us > rep.TopExprs[j].Us })
	if len(rep.TopExprs) > topN {
		rep.TopExprs = rep.TopExprs[:topN]
	}
	return rep
}

func ms(us float64) string {
	return time.Duration(us * float64(time.Microsecond)).Round(10 * time.Microsecond).String()
}

func printTable(w io.Writer, title, keyHeader string, tb table) {
	if len(tb) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%s\n", title)
	fmt.Fprintf(w, "  %-24s %8s %12s %12s\n", keyHeader, "count", "time", "conflicts")
	for _, b := range tb {
		fmt.Fprintf(w, "  %-24s %8d %12s %12d\n", b.Key, b.Count, ms(b.Us), b.Conflicts)
	}
}

func (rep *report) print(w io.Writer) {
	fmt.Fprintf(w, "trace-report: %d spans from %d file(s)\n", rep.Spans, rep.Files)
	fmt.Fprintf(w, "wall clock (root spans): %s\n", ms(rep.WallUs))
	fmt.Fprintf(w, "expression time:         %s", ms(rep.ExprUs))
	if rep.WallUs > 0 {
		fmt.Fprintf(w, "  (%.1f%% of wall; the rest is generation, harvest, and idle workers)",
			100*rep.ExprUs/rep.WallUs)
	}
	fmt.Fprintf(w, "\nsolver queries:          %d in %s, %d conflicts\n",
		rep.QueryCount, ms(rep.QueryUs), rep.Conflicts)

	printTable(w, "By analysis:", "analysis", rep.ByAnalysis)
	printTable(w, "By root opcode:", "opcode", rep.ByOpcode)
	printTable(w, "By bitwidth:", "width", rep.ByWidth)
	printTable(w, "By query class:", "class", rep.ByClass)

	if len(rep.TopExprs) > 0 {
		fmt.Fprintf(w, "\nTop %d expressions by oracle time (duplicates collapsed by canonical hash):\n", len(rep.TopExprs))
		for i, ec := range rep.TopExprs {
			fmt.Fprintf(w, "  #%d  %s  %s i%d  ×%d  %s  %d conflicts\n",
				i+1, ec.Hash, ec.Opcode, ec.Width, ec.Count, ms(ec.Us), ec.Conflicts)
			for _, line := range strings.Split(strings.TrimSpace(ec.Key), "\n") {
				fmt.Fprintf(w, "      %s\n", line)
			}
		}
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("trace-report", flag.ContinueOnError)
	topN := fs.Int("top", 10, "expressions to list in the top-N table")
	asJSON := fs.Bool("json", false, "emit the aggregation as JSON instead of tables")
	fs.SetOutput(w)
	fs.Usage = func() {
		fmt.Fprintf(w, "usage: trace-report [flags] trace.json [more.json ...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return fmt.Errorf("no trace files given")
	}
	spans, files, err := load(fs.Args())
	if err != nil {
		return err
	}
	rep := aggregate(spans, *topN)
	rep.Files = files
	if *asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	rep.print(w)
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "trace-report:", err)
		os.Exit(1)
	}
}
