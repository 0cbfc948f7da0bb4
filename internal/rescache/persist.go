package rescache

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"dfcheck/internal/apint"
	"dfcheck/internal/constrange"
	"dfcheck/internal/harvest"
	"dfcheck/internal/knownbits"
	"dfcheck/internal/oracle"
)

// The on-disk format is one JSON document: a version header plus the
// entries, each carrying its key, its analysis, a kind tag, and a
// width-tagged integer encoding of the result — the analog of the
// artifact's dump.rdb, but text so a cache file is diffable and
// hand-inspectable. An in-memory entry, one expression's eight results,
// is eight wire entries, one per analysis. Save writes the wire entries
// in sorted key order, so saving an unchanged cache is byte-stable.
//
// Load validates everything (version, kinds, widths, that each entry's
// kind is its analysis's, and that each entry is a result the oracle can
// produce) before committing, and returns an error on any mismatch;
// callers treat a failed load as a cold cache rather than crashing. It
// then groups the wire entries back by expression, budget and
// configuration, and keeps only the groups that hold all eight analyses.

// FormatVersion identifies the cache file layout. Loading any other
// version fails, forcing a cold start instead of misinterpreting results.
const FormatVersion = 1

const formatTool = "dfcheck-rescache"

type wireInt struct {
	W uint   `json:"w"`
	V uint64 `json:"v"`
}

func toWire(v apint.Int) *wireInt { return &wireInt{W: v.Width(), V: v.Uint64()} }

func (wi wireInt) decode() (apint.Int, error) {
	if wi.W == 0 || wi.W > apint.MaxWidth {
		return apint.Int{}, fmt.Errorf("rescache: invalid width %d", wi.W)
	}
	return apint.New(wi.W, wi.V), nil
}

// Entry kinds, one per oracle result type.
const (
	kindKnownBits = "knownbits"
	kindSignBits  = "signbits"
	kindBool      = "bool"
	kindRange     = "range"
	kindDemanded  = "demanded"
)

// analysisKinds is the one entry kind each oracle analysis's results
// take, in harvest.AllAnalyses order: an entry of another kind, or under
// another analysis name, is none the oracle produced.
var analysisKinds = [8]string{
	kindKnownBits, kindSignBits, kindBool, kindBool, kindBool, kindBool, kindRange, kindDemanded,
}

type wireEntry struct {
	Expr     string `json:"expr"`
	Analysis string `json:"analysis"`
	Budget   int64  `json:"budget,omitempty"`
	Config   string `json:"config,omitempty"`

	Kind      string `json:"kind"`
	ElapsedNs int64  `json:"elapsed_ns"`
	Feasible  bool   `json:"feasible"`
	Exhausted bool   `json:"exhausted,omitempty"`

	// Kind-specific payloads.
	Zero        *wireInt           `json:"zero,omitempty"` // knownbits
	One         *wireInt           `json:"one,omitempty"`  // knownbits
	NumSignBits uint               `json:"sign_bits,omitempty"`
	Proved      bool               `json:"proved,omitempty"`
	Lo          *wireInt           `json:"lo,omitempty"` // range
	Hi          *wireInt           `json:"hi,omitempty"` // range
	Demanded    map[string]wireInt `json:"demanded,omitempty"`
}

type wireFile struct {
	Tool    string      `json:"tool"`
	Version int         `json:"version"`
	Entries []wireEntry `json:"entries"`
}

// boolResults returns e's four single-bit results, in harvest.AllAnalyses
// order from index 2.
func boolResults(e *Entry) [4]*oracle.BoolResult {
	return [4]*oracle.BoolResult{&e.NonZero, &e.Negative, &e.NonNegative, &e.PowerOfTwo}
}

// encodeEntry flattens one cache entry into its eight wire entries, in
// harvest.AllAnalyses order.
func encodeEntry(k Key, e Entry) [8]wireEntry {
	var out [8]wireEntry
	at := func(i int, o oracle.Outcome) *wireEntry {
		out[i] = wireEntry{
			Expr: k.Expr, Analysis: string(harvest.AllAnalyses[i]), Budget: k.Budget, Config: k.Config,
			Kind: analysisKinds[i], ElapsedNs: e.Elapsed[i].Nanoseconds(), Feasible: o.Feasible, Exhausted: o.Exhausted,
		}
		return &out[i]
	}
	kb := at(0, e.Known.Outcome)
	kb.Zero, kb.One = toWire(e.Known.Bits.Zero), toWire(e.Known.Bits.One)
	at(1, e.Sign.Outcome).NumSignBits = e.Sign.NumSignBits
	for i, b := range boolResults(&e) {
		at(2+i, b.Outcome).Proved = b.Proved
	}
	r := at(6, e.Range.Outcome)
	r.Lo, r.Hi = toWire(e.Range.Range.Lower()), toWire(e.Range.Range.Upper())
	d := at(7, e.Demanded.Outcome)
	d.Demanded = make(map[string]wireInt, len(e.Demanded.Demanded))
	for name, mask := range e.Demanded.Demanded {
		d.Demanded[name] = *toWire(mask)
	}
	return out
}

func decodeRange(lo, hi *wireInt) (constrange.Range, error) {
	if lo == nil || hi == nil {
		return constrange.Range{}, fmt.Errorf("rescache: range entry missing bounds")
	}
	l, err := lo.decode()
	if err != nil {
		return constrange.Range{}, err
	}
	h, err := hi.decode()
	if err != nil {
		return constrange.Range{}, err
	}
	if l.Width() != h.Width() {
		return constrange.Range{}, fmt.Errorf("rescache: range bound widths %d vs %d", l.Width(), h.Width())
	}
	if l.Eq(h) {
		// The two degenerate encodings of constrange.
		switch {
		case l.IsAllOnes():
			return constrange.Full(l.Width()), nil
		case l.IsZero():
			return constrange.Empty(l.Width()), nil
		default:
			return constrange.Range{}, fmt.Errorf("rescache: ambiguous range bounds [%v,%v)", l, h)
		}
	}
	return constrange.New(l, h), nil
}

// decodeInto validates one wire entry and stores its result and time in
// e, at its analysis's place, whose harvest.AllAnalyses index it returns.
func decodeInto(we wireEntry, e *Entry) (int, error) {
	if we.Expr == "" || we.Analysis == "" {
		return 0, fmt.Errorf("rescache: entry missing key fields")
	}
	if we.ElapsedNs < 0 {
		return 0, fmt.Errorf("rescache: negative elapsed_ns %d", we.ElapsedNs)
	}
	out := oracle.Outcome{Feasible: we.Feasible, Exhausted: we.Exhausted}
	var store func(i int)
	switch we.Kind {
	case kindKnownBits:
		if we.Zero == nil || we.One == nil {
			return 0, fmt.Errorf("rescache: knownbits entry missing masks")
		}
		z, err := we.Zero.decode()
		if err != nil {
			return 0, err
		}
		o, err := we.One.decode()
		if err != nil {
			return 0, err
		}
		if z.Width() != o.Width() {
			return 0, fmt.Errorf("rescache: knownbits mask widths %d vs %d", z.Width(), o.Width())
		}
		if !z.And(o).IsZero() {
			return 0, fmt.Errorf("rescache: knownbits masks overlap (zero %v, one %v)", z, o)
		}
		store = func(int) { e.Known = oracle.KnownBitsResult{Outcome: out, Bits: knownbits.Make(z, o)} }
	case kindSignBits:
		// Every value has at least one sign bit, and at most its width.
		if we.NumSignBits == 0 {
			return 0, fmt.Errorf("rescache: signbits entry without a count of at least 1")
		}
		if we.NumSignBits > apint.MaxWidth {
			return 0, fmt.Errorf("rescache: signbits count %d above the widest value's %d bits", we.NumSignBits, apint.MaxWidth)
		}
		store = func(int) { e.Sign = oracle.SignBitsResult{Outcome: out, NumSignBits: we.NumSignBits} }
	case kindBool:
		store = func(i int) { *boolResults(e)[i-2] = oracle.BoolResult{Outcome: out, Proved: we.Proved} }
	case kindRange:
		r, err := decodeRange(we.Lo, we.Hi)
		if err != nil {
			return 0, err
		}
		store = func(int) { e.Range = oracle.RangeResult{Outcome: out, Range: r} }
	case kindDemanded:
		dem := make(map[string]apint.Int, len(we.Demanded))
		for name, wi := range we.Demanded {
			mask, err := wi.decode()
			if err != nil {
				return 0, err
			}
			dem[name] = mask
		}
		store = func(int) { e.Demanded = oracle.DemandedBitsResult{Outcome: out, Demanded: dem} }
	default:
		return 0, fmt.Errorf("rescache: unknown entry kind %q", we.Kind)
	}
	i := slices.Index(harvest.AllAnalyses, harvest.Analysis(we.Analysis))
	switch {
	case i < 0:
		return 0, fmt.Errorf("rescache: no oracle analysis is named %q", we.Analysis)
	case we.Kind != analysisKinds[i]:
		return 0, fmt.Errorf("rescache: %s entry for %s, whose results are %s", we.Kind, we.Analysis, analysisKinds[i])
	}
	store(i)
	e.Elapsed[i] = time.Duration(we.ElapsedNs)
	return i, nil
}

// Save writes the cache in the versioned on-disk format, wire entries in
// sorted key order: by expression, analysis, budget and configuration.
func (c *Cache) Save(w io.Writer) error {
	snap := c.snapshot()
	wf := wireFile{Tool: formatTool, Version: FormatVersion, Entries: make([]wireEntry, 0, 8*len(snap))}
	for k, e := range snap {
		we := encodeEntry(k, e)
		wf.Entries = append(wf.Entries, we[:]...)
	}
	sort.Slice(wf.Entries, func(i, j int) bool {
		a, b := &wf.Entries[i], &wf.Entries[j]
		if a.Expr != b.Expr {
			return a.Expr < b.Expr
		}
		if a.Analysis != b.Analysis {
			return a.Analysis < b.Analysis
		}
		if a.Budget != b.Budget {
			return a.Budget < b.Budget
		}
		return a.Config < b.Config
	})
	enc := json.NewEncoder(w)
	return enc.Encode(wf)
}

// Load merges entries from a cache file written by Save. Nothing is
// committed unless the whole file validates: on any error — malformed
// JSON, a version or tool mismatch, an invalid entry — the cache is left
// exactly as it was, so callers can fall back to running cold. A group
// of wire entries that lacks one of the eight analyses is dropped: files
// written while each analysis was its own cache entry hold one for an
// expression whose run was cancelled midway.
func (c *Cache) Load(r io.Reader) error {
	var wf wireFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&wf); err != nil {
		return fmt.Errorf("rescache: corrupt cache file: %w", err)
	}
	if wf.Tool != formatTool {
		return fmt.Errorf("rescache: not a %s file (tool=%q)", formatTool, wf.Tool)
	}
	if wf.Version != FormatVersion {
		return fmt.Errorf("rescache: cache file version %d, want %d", wf.Version, FormatVersion)
	}
	type group struct {
		e    Entry
		have uint8 // bit i: analysis i decoded
	}
	groups := make(map[Key]*group)
	for i, we := range wf.Entries {
		k := Key{Expr: we.Expr, Budget: we.Budget, Config: we.Config}
		g := groups[k]
		if g == nil {
			g = &group{}
			groups[k] = g
		}
		a, err := decodeInto(we, &g.e)
		if err != nil {
			return fmt.Errorf("rescache: entry %d (%s of %q): %w", i, we.Analysis, we.Expr, err)
		}
		g.have |= 1 << a
	}
	// The whole file validated: commit its complete groups.
	for k, g := range groups {
		if g.have == 0xff {
			c.Put(k, g.e)
		}
	}
	return nil
}

// SaveFile writes the cache to path atomically: the snapshot is encoded
// into a fresh unique temp file in path's directory and renamed into
// place, the same discipline as internal/campaign's checkpoints. A
// unique temp name (rather than the fixed path+".tmp" this used to use)
// means two concurrent SaveFile calls — e.g. a periodic saver racing a
// shutdown flush while other goroutines keep writing shards — cannot
// interleave bytes into one file; each rename installs one complete,
// individually valid snapshot, and the loser's snapshot simply wins.
// A reader that crashes us mid-save sees either the old file or the new
// one, never a torn mix (plus at worst a stray ".rescache-*" temp).
func (c *Cache) SaveFile(path string) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".rescache-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := c.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// LoadFile merges entries from the cache file at path. A missing file is
// reported via os.IsNotExist on the returned error.
func (c *Cache) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return c.Load(f)
}
