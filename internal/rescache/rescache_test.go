package rescache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dfcheck/internal/apint"
	"dfcheck/internal/constrange"
	"dfcheck/internal/knownbits"
	"dfcheck/internal/oracle"
)

func k(expr string) Key {
	return Key{Expr: expr, Budget: 100, Config: "cfg"}
}

// sampleEntry is one loadable entry: the eight facts of a live i8
// expression with two variables.
func sampleEntry() Entry {
	feasible := oracle.Outcome{Feasible: true}
	return Entry{
		Known:       oracle.KnownBitsResult{Outcome: feasible, Bits: knownbits.Make(apint.New(8, 0xf0), apint.New(8, 0x01))},
		Sign:        oracle.SignBitsResult{Outcome: feasible, NumSignBits: 3},
		NonZero:     oracle.BoolResult{Outcome: feasible, Proved: true},
		Negative:    oracle.BoolResult{Outcome: feasible},
		NonNegative: oracle.BoolResult{Outcome: feasible, Proved: true},
		PowerOfTwo:  oracle.BoolResult{Outcome: oracle.Outcome{Feasible: true, Exhausted: true}},
		Range:       oracle.RangeResult{Outcome: feasible, Range: constrange.New(apint.New(8, 3), apint.New(8, 200))},
		Demanded: oracle.DemandedBitsResult{Outcome: feasible, Demanded: map[string]apint.Int{
			"x0": apint.New(8, 0xff),
			"x1": apint.New(8, 0x0f),
		}},
		Elapsed: [8]time.Duration{123 * time.Microsecond, 45 * time.Microsecond, 7 * time.Microsecond,
			3 * time.Microsecond, 2 * time.Microsecond, 1 * time.Microsecond, 99 * time.Microsecond, 88 * time.Microsecond},
	}
}

// sampleEntries covers every encoding the wire format has: a wrapped, a
// full and an empty range, dead code, exhausted results, demanded masks
// for two variables and for none, and keys that differ only in budget
// or configuration.
func sampleEntries() map[Key]Entry {
	full := sampleEntry()
	full.Range.Range = constrange.Full(8)
	dead := Entry{
		Known:       oracle.KnownBitsResult{Bits: knownbits.FromConst(apint.Zero(4))},
		Sign:        oracle.SignBitsResult{NumSignBits: 4},
		NonZero:     oracle.BoolResult{Proved: true},
		Negative:    oracle.BoolResult{Proved: true},
		NonNegative: oracle.BoolResult{Proved: true},
		PowerOfTwo:  oracle.BoolResult{Proved: true},
		Range:       oracle.RangeResult{Range: constrange.Empty(4)},
		Demanded:    oracle.DemandedBitsResult{Demanded: map[string]apint.Int{"x0": apint.Zero(4)}},
		Elapsed:     [8]time.Duration{2 * time.Microsecond},
	}
	exhausted := oracle.Outcome{Feasible: true, Exhausted: true}
	wide := Entry{
		Known:       oracle.KnownBitsResult{Outcome: exhausted, Bits: knownbits.Unknown(13)},
		Sign:        oracle.SignBitsResult{Outcome: exhausted, NumSignBits: 1},
		NonZero:     oracle.BoolResult{Outcome: exhausted},
		Negative:    oracle.BoolResult{Outcome: exhausted},
		NonNegative: oracle.BoolResult{Outcome: exhausted},
		PowerOfTwo:  oracle.BoolResult{Outcome: exhausted},
		Range:       oracle.RangeResult{Outcome: exhausted, Range: constrange.Full(13)},
		Demanded:    oracle.DemandedBitsResult{Outcome: exhausted, Demanded: map[string]apint.Int{}},
		Elapsed:     [8]time.Duration{5 * time.Second, time.Second},
	}
	return map[Key]Entry{
		{Expr: "e1", Budget: 1, Config: "c"}:    sampleEntry(),
		{Expr: "e1", Budget: 1, Config: "full"}: full,
		{Expr: "e1", Budget: 2, Config: "c"}:    full,
		{Expr: "e2", Budget: 1, Config: "c"}:    dead,
		{Expr: "e3", Budget: 2, Config: "c"}:    wide,
	}
}

func TestGetPutStats(t *testing.T) {
	c := New()
	if _, ok := c.Get(k("missing")); ok {
		t.Fatal("empty cache returned a hit")
	}
	e := sampleEntry()
	c.Put(k("a"), e)
	got, ok := c.Get(k("a"))
	if !ok || !reflect.DeepEqual(got, e) {
		t.Fatalf("Get = %+v, %v; want %+v, true", got, ok, e)
	}
	if _, ok := c.Get(Key{Expr: "a", Budget: 100, Config: "other"}); ok {
		t.Fatal("different config must not hit")
	}
	// Peek finds what Get finds but counts neither a hit nor a miss.
	if got, ok := c.Peek(k("a")); !ok || !reflect.DeepEqual(got, e) {
		t.Fatalf("Peek = %+v, %v; want %+v, true", got, ok, e)
	}
	if _, ok := c.Peek(k("missing")); ok {
		t.Fatal("Peek of a missing key returned an entry")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses", st)
	}
	if got, want := st.HitRate(), 1.0/3; got != want {
		t.Fatalf("hit rate = %v, want %v", got, want)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := k(fmt.Sprintf("expr-%d", i%17))
				if _, ok := c.Get(key); !ok {
					c.Put(key, Entry{Sign: oracle.SignBitsResult{NumSignBits: uint(g)}})
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != 17 {
		t.Fatalf("Len = %d, want 17", c.Len())
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	c := New()
	want := sampleEntries()
	for key, e := range want {
		c.Put(key, e)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}

	c2 := New()
	if err := c2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if c2.Len() != len(want) {
		t.Fatalf("loaded %d entries, want %d", c2.Len(), len(want))
	}
	for key, e := range want {
		got, ok := c2.Get(key)
		if !ok {
			t.Fatalf("key %+v missing after round trip", key)
		}
		if !reflect.DeepEqual(got, e) {
			t.Errorf("key %+v: got %+v, want %+v", key, got, e)
		}
	}
}

func TestSaveByteStable(t *testing.T) {
	c := New()
	for key, e := range sampleEntries() {
		c.Put(key, e)
	}
	var a, b bytes.Buffer
	if err := c.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two saves of the same cache differ")
	}
}

// rejectingLoad asserts that loading data fails and leaves the cache
// exactly as it was.
func rejectingLoad(t *testing.T, data string, wantErr string) {
	t.Helper()
	c := New()
	c.Put(k("pre-existing"), sampleEntry())
	err := c.Load(strings.NewReader(data))
	if err == nil {
		t.Fatalf("Load(%q) succeeded, want error containing %q", data, wantErr)
	}
	if !strings.Contains(err.Error(), wantErr) {
		t.Fatalf("Load error %q does not contain %q", err, wantErr)
	}
	if c.Len() != 1 {
		t.Fatalf("failed load changed the cache: Len = %d", c.Len())
	}
	if _, ok := c.Get(k("pre-existing")); !ok {
		t.Fatal("failed load evicted an existing entry")
	}
}

func TestLoadRejectsCorruptFile(t *testing.T) {
	rejectingLoad(t, "not json at all {", "corrupt")
	rejectingLoad(t, `{"tool":"something-else","version":1,"entries":[]}`, "not a dfcheck-rescache file")
	rejectingLoad(t, `{"tool":"dfcheck-rescache","version":99,"entries":[]}`, "version 99")
	rejectingLoad(t,
		`{"tool":"dfcheck-rescache","version":1,"entries":[{"expr":"e","analysis":"known bits","kind":"nonsense"}]}`,
		"unknown entry kind")
	rejectingLoad(t,
		`{"tool":"dfcheck-rescache","version":1,"entries":[{"expr":"e","analysis":"known bits","kind":"knownbits","zero":{"w":900,"v":0},"one":{"w":900,"v":0}}]}`,
		"invalid width")
	rejectingLoad(t,
		`{"tool":"dfcheck-rescache","version":1,"entries":[{"expr":"","analysis":"","kind":"bool"}]}`,
		"missing key fields")
	rejectingLoad(t,
		`{"tool":"dfcheck-rescache","version":1,"entries":[{"expr":"e","analysis":"integer range","kind":"range","lo":{"w":8,"v":5},"hi":{"w":8,"v":5}}]}`,
		"ambiguous range")
}

// TestLoadRejectsImpossibleEntries: an entry no oracle run produces is
// refused, with the entry named. Known bits never claim a bit both zero
// and one, every value has at least one sign bit and at most 64, no
// computation takes negative time, and each analysis's results take one
// kind.
func TestLoadRejectsImpossibleEntries(t *testing.T) {
	const head = `{"tool":"dfcheck-rescache","version":1,"entries":[`
	for _, tc := range []struct{ entry, wantErr string }{
		{`{"expr":"e","analysis":"known bits","kind":"knownbits","elapsed_ns":1,"feasible":true,"zero":{"w":8,"v":15},"one":{"w":8,"v":255}}`,
			`entry 0 (known bits of "e"): rescache: knownbits masks overlap`},
		{`{"expr":"e","analysis":"sign bits","kind":"signbits","elapsed_ns":1,"feasible":true}`,
			`entry 0 (sign bits of "e"): rescache: signbits entry without a count`},
		{`{"expr":"e","analysis":"sign bits","kind":"signbits","elapsed_ns":1,"feasible":true,"sign_bits":0}`,
			`entry 0 (sign bits of "e"): rescache: signbits entry without a count`},
		{`{"expr":"e","analysis":"non-zero","kind":"bool","elapsed_ns":-5,"feasible":true,"proved":true}`,
			`entry 0 (non-zero of "e"): rescache: negative elapsed_ns -5`},
		{`{"expr":"e","analysis":"sign bits","kind":"signbits","elapsed_ns":1,"feasible":true,"sign_bits":200}`,
			`entry 0 (sign bits of "e"): rescache: signbits count 200 above the widest value's 64 bits`},
		{`{"expr":"e","analysis":"known bits","kind":"bool","elapsed_ns":1,"feasible":true,"proved":true}`,
			`entry 0 (known bits of "e"): rescache: bool entry for known bits, whose results are knownbits`},
		{`{"expr":"e","analysis":"tnum","kind":"bool","elapsed_ns":1,"feasible":true}`,
			`entry 0 (tnum of "e"): rescache: no oracle analysis is named "tnum"`},
	} {
		rejectingLoad(t, head+tc.entry+`]}`, tc.wantErr)
	}
}

// TestLoadDropsIncompleteGroups: a file whose wire entries leave out an
// analysis of some expression, as one written while each analysis was
// its own entry can when a run was cancelled mid-expression, loads
// without that expression and with every complete one.
func TestLoadDropsIncompleteGroups(t *testing.T) {
	c := New()
	want := sampleEntries()
	for key, e := range want {
		c.Put(key, e)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var wf wireFile
	if err := json.Unmarshal(buf.Bytes(), &wf); err != nil {
		t.Fatal(err)
	}
	if len(wf.Entries) != 8*len(want) {
		t.Fatalf("%d wire entries for %d expressions, want 8 each", len(wf.Entries), len(want))
	}
	partial := Key{Expr: "e1", Budget: 1, Config: "c"}
	kept := wf.Entries[:0]
	for _, we := range wf.Entries {
		if (Key{Expr: we.Expr, Budget: we.Budget, Config: we.Config}) != partial || we.Analysis != "integer range" {
			kept = append(kept, we)
		}
	}
	wf.Entries = append(kept, wireEntry{Expr: "lone", Analysis: "non-zero", Kind: kindBool, Feasible: true})
	data, err := json.Marshal(wf)
	if err != nil {
		t.Fatal(err)
	}
	got := New()
	if err := got.Load(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	delete(want, partial)
	if !reflect.DeepEqual(got.snapshot(), want) {
		t.Errorf("loaded %+v\nwant %+v", got.snapshot(), want)
	}
}

// FuzzLoad: no input makes Load panic, a file Load accepts holds only
// results the oracle can produce, and its complete groups come back
// from Save and a second Load as the same entries, eight wire entries
// each.
func FuzzLoad(f *testing.F) {
	c := New()
	for key, e := range sampleEntries() {
		c.Put(key, e)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// Entries Load must refuse: a kind that is not its analysis's, and
	// more sign bits than any value has.
	f.Add([]byte(`{"tool":"dfcheck-rescache","version":1,"entries":[{"expr":"e","analysis":"known bits","kind":"bool","elapsed_ns":1,"feasible":true,"proved":true}]}`))
	f.Add([]byte(`{"tool":"dfcheck-rescache","version":1,"entries":[{"expr":"e","analysis":"sign bits","kind":"signbits","elapsed_ns":1,"feasible":true,"sign_bits":200}]}`))
	// A group Load accepts and drops: one analysis of eight.
	f.Add([]byte(`{"tool":"dfcheck-rescache","version":1,"entries":[{"expr":"e","analysis":"non-zero","kind":"bool","elapsed_ns":1,"feasible":true,"proved":true}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		first := New()
		if first.Load(bytes.NewReader(data)) != nil {
			return
		}
		var saved bytes.Buffer
		if err := first.Save(&saved); err != nil {
			t.Fatal(err)
		}
		for key, e := range first.snapshot() {
			if n := e.Sign.NumSignBits; n < 1 || n > apint.MaxWidth {
				t.Fatalf("accepted %d sign bits for %+v", n, key)
			}
		}
		var wf wireFile
		if err := json.Unmarshal(saved.Bytes(), &wf); err != nil || len(wf.Entries) != 8*first.Len() {
			t.Fatalf("saved %d entries as %d wire entries (%v), want 8 each", first.Len(), len(wf.Entries), err)
		}
		second := New()
		if err := second.Load(&saved); err != nil {
			t.Fatalf("saved cache refused: %v\n%s", err, saved.Bytes())
		}
		if a, b := first.snapshot(), second.snapshot(); !reflect.DeepEqual(a, b) {
			t.Fatalf("entries changed through Save and Load:\nfirst:  %+v\nsecond: %+v", a, b)
		}
	})
}

func TestFileRoundTripAndMissing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "results.cache")

	c := New()
	if err := c.LoadFile(path); !os.IsNotExist(err) {
		t.Fatalf("LoadFile(missing) = %v, want IsNotExist", err)
	}
	for key, e := range sampleEntries() {
		c.Put(key, e)
	}
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".rescache-") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}

	c2 := New()
	if err := c2.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if c2.Len() != c.Len() {
		t.Fatalf("loaded %d entries, want %d", c2.Len(), c.Len())
	}
	// Every loaded entry must hit.
	for key := range sampleEntries() {
		if _, ok := c2.Get(key); !ok {
			t.Fatalf("key %+v missing after file round trip", key)
		}
	}

	// Corrupt the file on disk: load fails, cache stays usable (cold).
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	c3 := New()
	if err := c3.LoadFile(path); err == nil {
		t.Fatal("loading corrupt file succeeded")
	}
	if c3.Len() != 0 {
		t.Fatal("corrupt load populated the cache")
	}
	c3.Put(k("new"), sampleEntry())
	if c3.Len() != 1 {
		t.Fatal("cache unusable after failed load")
	}
}

// The wire format must stay valid JSON with the declared version header —
// external tooling may inspect it.
func TestWireFormatShape(t *testing.T) {
	c := New()
	for key, e := range sampleEntries() {
		c.Put(key, e)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("saved cache is not valid JSON: %v", err)
	}
	if doc["tool"] != "dfcheck-rescache" || doc["version"] != float64(FormatVersion) {
		t.Fatalf("header = tool %v version %v", doc["tool"], doc["version"])
	}
}
