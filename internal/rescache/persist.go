package rescache

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dfcheck/internal/apint"
	"dfcheck/internal/constrange"
	"dfcheck/internal/harvest"
	"dfcheck/internal/knownbits"
	"dfcheck/internal/oracle"
)

// The on-disk format is one JSON document: a version header plus the
// entries, each carrying its key, a kind tag, and a width-tagged integer
// encoding of the result — the analog of the artifact's dump.rdb, but
// text so a cache file is diffable and hand-inspectable. Save writes
// entries in sorted key order, so saving an unchanged cache is
// byte-stable.
//
// Load validates everything (version, kinds, widths, that each entry's
// kind is its analysis's, and that each entry is a result the oracle can
// produce) before committing, and returns an error on any mismatch;
// callers treat a failed load as a cold cache rather than crashing.

// FormatVersion identifies the cache file layout. Loading any other
// version fails, forcing a cold start instead of misinterpreting results.
const FormatVersion = 1

const formatTool = "dfcheck-rescache"

type wireInt struct {
	W uint   `json:"w"`
	V uint64 `json:"v"`
}

func toWire(v apint.Int) wireInt { return wireInt{W: v.Width(), V: v.Uint64()} }

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

// analysisKind is the one entry kind each oracle analysis's results
// take: an entry of another kind, or under another analysis name, is
// none the oracle produced.
var analysisKind = map[string]string{
	string(harvest.KnownBits):    kindKnownBits,
	string(harvest.SignBits):     kindSignBits,
	string(harvest.NonZero):      kindBool,
	string(harvest.Negative):     kindBool,
	string(harvest.NonNegative):  kindBool,
	string(harvest.PowerOfTwo):   kindBool,
	string(harvest.IntegerRange): kindRange,
	string(harvest.DemandedBits): kindDemanded,
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

// encodeEntry flattens one cache entry; unknown value types are skipped
// (reported via the bool) rather than failing the whole save.
func encodeEntry(k Key, e Entry) (wireEntry, bool) {
	we := wireEntry{
		Expr:      k.Expr,
		Analysis:  k.Analysis,
		Budget:    k.Budget,
		Config:    k.Config,
		ElapsedNs: e.Elapsed.Nanoseconds(),
	}
	switch v := e.Value.(type) {
	case oracle.KnownBitsResult:
		we.Kind = kindKnownBits
		we.Feasible, we.Exhausted = v.Feasible, v.Exhausted
		z, o := toWire(v.Bits.Zero), toWire(v.Bits.One)
		we.Zero, we.One = &z, &o
	case oracle.SignBitsResult:
		we.Kind = kindSignBits
		we.Feasible, we.Exhausted = v.Feasible, v.Exhausted
		we.NumSignBits = v.NumSignBits
	case oracle.BoolResult:
		we.Kind = kindBool
		we.Feasible, we.Exhausted = v.Feasible, v.Exhausted
		we.Proved = v.Proved
	case oracle.RangeResult:
		we.Kind = kindRange
		we.Feasible, we.Exhausted = v.Feasible, v.Exhausted
		lo, hi := toWire(v.Range.Lower()), toWire(v.Range.Upper())
		we.Lo, we.Hi = &lo, &hi
	case oracle.DemandedBitsResult:
		we.Kind = kindDemanded
		we.Feasible, we.Exhausted = v.Feasible, v.Exhausted
		we.Demanded = make(map[string]wireInt, len(v.Demanded))
		for name, mask := range v.Demanded {
			we.Demanded[name] = toWire(mask)
		}
	default:
		return wireEntry{}, false
	}
	return we, true
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

func decodeEntry(we wireEntry) (Key, Entry, error) {
	k := Key{Expr: we.Expr, Analysis: we.Analysis, Budget: we.Budget, Config: we.Config}
	if we.Expr == "" || we.Analysis == "" {
		return k, Entry{}, fmt.Errorf("rescache: entry missing key fields")
	}
	if we.ElapsedNs < 0 {
		return k, Entry{}, fmt.Errorf("rescache: negative elapsed_ns %d", we.ElapsedNs)
	}
	out := oracle.Outcome{Feasible: we.Feasible, Exhausted: we.Exhausted}
	e := Entry{Elapsed: time.Duration(we.ElapsedNs)}
	switch we.Kind {
	case kindKnownBits:
		if we.Zero == nil || we.One == nil {
			return k, Entry{}, fmt.Errorf("rescache: knownbits entry missing masks")
		}
		z, err := we.Zero.decode()
		if err != nil {
			return k, Entry{}, err
		}
		o, err := we.One.decode()
		if err != nil {
			return k, Entry{}, err
		}
		if z.Width() != o.Width() {
			return k, Entry{}, fmt.Errorf("rescache: knownbits mask widths %d vs %d", z.Width(), o.Width())
		}
		if !z.And(o).IsZero() {
			return k, Entry{}, fmt.Errorf("rescache: knownbits masks overlap (zero %v, one %v)", z, o)
		}
		e.Value = oracle.KnownBitsResult{Outcome: out, Bits: knownbits.Make(z, o)}
	case kindSignBits:
		// Every value has at least one sign bit, and at most its width.
		if we.NumSignBits == 0 {
			return k, Entry{}, fmt.Errorf("rescache: signbits entry without a count of at least 1")
		}
		if we.NumSignBits > apint.MaxWidth {
			return k, Entry{}, fmt.Errorf("rescache: signbits count %d above the widest value's %d bits", we.NumSignBits, apint.MaxWidth)
		}
		e.Value = oracle.SignBitsResult{Outcome: out, NumSignBits: we.NumSignBits}
	case kindBool:
		e.Value = oracle.BoolResult{Outcome: out, Proved: we.Proved}
	case kindRange:
		r, err := decodeRange(we.Lo, we.Hi)
		if err != nil {
			return k, Entry{}, err
		}
		e.Value = oracle.RangeResult{Outcome: out, Range: r}
	case kindDemanded:
		dem := make(map[string]apint.Int, len(we.Demanded))
		for name, wi := range we.Demanded {
			mask, err := wi.decode()
			if err != nil {
				return k, Entry{}, err
			}
			dem[name] = mask
		}
		e.Value = oracle.DemandedBitsResult{Outcome: out, Demanded: dem}
	default:
		return k, Entry{}, fmt.Errorf("rescache: unknown entry kind %q", we.Kind)
	}
	switch want, ok := analysisKind[we.Analysis]; {
	case !ok:
		return k, Entry{}, fmt.Errorf("rescache: no oracle analysis is named %q", we.Analysis)
	case we.Kind != want:
		return k, Entry{}, fmt.Errorf("rescache: %s entry for %s, whose results are %s", we.Kind, we.Analysis, want)
	}
	return k, e, nil
}

// Save writes the cache in the versioned on-disk format, entries in
// sorted key order.
func (c *Cache) Save(w io.Writer) error {
	snap := c.snapshot()
	keys := make([]Key, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
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
	wf := wireFile{Tool: formatTool, Version: FormatVersion, Entries: make([]wireEntry, 0, len(keys))}
	for _, k := range keys {
		if we, ok := encodeEntry(k, snap[k]); ok {
			wf.Entries = append(wf.Entries, we)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(wf)
}

// Load merges entries from a cache file written by Save. Nothing is
// committed unless the whole file validates: on any error — malformed
// JSON, a version or tool mismatch, an invalid entry — the cache is left
// exactly as it was, so callers can fall back to running cold.
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
	loaded := make(map[Key]Entry, len(wf.Entries))
	for i, we := range wf.Entries {
		k, e, err := decodeEntry(we)
		if err != nil {
			return fmt.Errorf("rescache: entry %d (%s of %q): %w", i, we.Analysis, we.Expr, err)
		}
		loaded[k] = e
	}
	c.commit(loaded)
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
