// Package storage implements the persistence layer beneath the transform
// and engine: the snapshot file codec and FileSegment handle for a frozen
// store snapshot (CSR graph, dictionaries, Lsimple index, net triple set),
// and the write-ahead log that makes mutations durable between snapshots
// (wal.go).
//
// The snapshot file is a versioned, checksummed container:
//
//	magic+version "THSNAP01" (8 bytes)
//	u8  mode (0 direct, 1 type-aware)
//	u64 epoch
//	u64 triple count
//	sections, each: u8 tag, uvarint length, payload
//	  1 verts dictionary   2 labels dictionary (type-aware only)
//	  3 preds dictionary   4 graph CSR snapshot
//	  5 Lsimple CSR        6 net triple set
//	  0 end of sections
//	u32 CRC32-IEEE over everything above
//
// The CRC is verified before any section is parsed, then every section is
// decoded defensively (see the rdf and graph codecs): corruption surfaces
// as *graph.CorruptSnapshotError, never a panic. Triples are stored as term
// references into the dictionaries — a tag byte plus a u32 ID for interned
// terms, well-known tags for rdf:type and rdfs:subClassOf, an inline string
// as the fallback — so the triple set costs ~13 bytes per triple instead of
// three full term strings.
package storage

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/graph"
	"repro/internal/rdf"
	"repro/internal/wire"
)

// segmentMagic is the snapshot container's magic + format version. Bump the
// trailing digits on incompatible changes; older readers then reject the
// file instead of misparsing it.
const segmentMagic = "THSNAP01"

// Transformation modes as stored in the container. They mirror
// transform.Mode, re-declared here because storage sits below transform.
const (
	ModeDirect    = 0
	ModeTypeAware = 1
)

// Section tags of the snapshot container.
const (
	secEnd     = 0
	secVerts   = 1
	secLabels  = 2
	secPreds   = 3
	secGraph   = 4
	secLsimple = 5
	secTriples = 6
)

// SegmentData is one frozen store snapshot: everything needed to serve
// queries (graph + dictionaries + Lsimple) and to resume mutations (the net
// triple set). All fields are immutable once published.
type SegmentData struct {
	Mode  uint8
	Epoch uint64

	Graph  *graph.Graph
	Verts  *rdf.Dictionary
	Labels *rdf.Dictionary // nil under Direct
	Preds  *rdf.Dictionary

	SimpleOff []int // Lsimple CSR (TypeAware only)
	Simple    []uint32

	Triples []rdf.Triple // the net triple set, in canonical key order

	// Validated is set by DecodeSegment after the triples section passed
	// positional validation: every term of every triple was resolved
	// against the dictionary its position requires (subjects/objects in
	// verts, predicates in preds, type objects and subClassOf terms in
	// labels) and adjacent triples are distinct. Consumers rebuilding
	// per-triple indexes may defer that work for a validated snapshot
	// instead of re-checking term membership triple by triple.
	// Hand-assembled SegmentData values leave it false and get the eager
	// checks.
	Validated bool
}

// FileSegment is a handle to one frozen snapshot file: the snapshot is
// decoded from the container file once at open and served from memory
// afterwards. Opening validates the checksum and every structural
// invariant, so a FileSegment that opened successfully cannot panic later.
// Like the engine's Data(), Snapshot is pinned once per execution: callers
// take the *SegmentData a single time and thread it through, rather than
// re-reading mid-flight (the snapshotpin analyzer enforces this).
type FileSegment struct {
	path string
	data *SegmentData
}

// OpenFileSegment opens and fully validates a snapshot container file.
func OpenFileSegment(path string) (*FileSegment, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sd, err := DecodeSegment(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &FileSegment{path: path, data: sd}, nil
}

// Snapshot returns the decoded snapshot.
func (s *FileSegment) Snapshot() (*SegmentData, error) { return s.data, nil }

// Close releases the decoded snapshot.
func (s *FileSegment) Close() error {
	s.data = nil
	return nil
}

// Path returns the container file the segment was opened from.
func (s *FileSegment) Path() string { return s.path }

// EncodeSegment serializes sd into the container format. Deterministic:
// equal snapshots produce identical bytes.
func EncodeSegment(sd *SegmentData) []byte {
	b := []byte(segmentMagic)
	b = wire.AppendU8(b, sd.Mode)
	b = wire.AppendU64(b, sd.Epoch)
	b = wire.AppendU64(b, uint64(len(sd.Triples)))

	section := func(tag uint8, blob []byte) {
		b = wire.AppendU8(b, tag)
		b = wire.AppendBytes(b, blob)
	}
	section(secVerts, sd.Verts.AppendSnapshot(nil))
	if sd.Labels != nil {
		section(secLabels, sd.Labels.AppendSnapshot(nil))
	}
	section(secPreds, sd.Preds.AppendSnapshot(nil))
	section(secGraph, sd.Graph.AppendSnapshot(nil))
	if sd.Mode == ModeTypeAware {
		lsimple := wire.AppendInts(nil, sd.SimpleOff)
		lsimple = wire.AppendU32s(lsimple, sd.Simple)
		section(secLsimple, lsimple)
	}
	section(secTriples, encodeTriples(sd))
	b = wire.AppendU8(b, secEnd)
	return wire.AppendU32(b, crc32.ChecksumIEEE(b))
}

// WriteSegmentFile atomically writes sd's container to path: the bytes go
// to a temp file in the same directory, are fsynced, then renamed into
// place — a crash mid-write leaves the previous snapshot intact.
func WriteSegmentFile(path string, sd *SegmentData) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".snapshot-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(EncodeSegment(sd)); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func corrupt(off int, format string, args ...any) error {
	return &graph.CorruptSnapshotError{Off: off, Msg: fmt.Sprintf(format, args...)}
}

// DecodeSegment parses and validates a snapshot container. The input is
// untrusted: bad magic, a failed checksum, truncation, version skew,
// duplicate or missing sections, and any structural inconsistency return a
// *graph.CorruptSnapshotError — this path never panics.
func DecodeSegment(raw []byte) (*SegmentData, error) {
	if len(raw) < len(segmentMagic)+4 {
		return nil, corrupt(0, "container too short (%d bytes)", len(raw))
	}
	if string(raw[:len(segmentMagic)]) != segmentMagic {
		return nil, corrupt(0, "bad magic %q (want %q; version skew?)", raw[:len(segmentMagic)], segmentMagic)
	}
	body, sum := raw[:len(raw)-4], raw[len(raw)-4:]
	want := uint32(sum[0])<<24 | uint32(sum[1])<<16 | uint32(sum[2])<<8 | uint32(sum[3])
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, corrupt(len(body), "checksum mismatch: file says %08x, content is %08x", want, got)
	}

	r := wire.NewReader(body[len(segmentMagic):])
	sd := &SegmentData{Mode: r.U8(), Epoch: r.U64()}
	tripleCount := r.U64()

	sections := map[uint8][]byte{}
	for {
		tag := r.U8()
		if _, _, failed := r.Failed(); failed || tag == secEnd {
			break
		}
		if tag > secTriples {
			return nil, corrupt(r.Off(), "unknown section tag %d", tag)
		}
		if _, dup := sections[tag]; dup {
			return nil, corrupt(r.Off(), "duplicate section %d", tag)
		}
		sections[tag] = r.Bytes("section")
	}
	if off, msg, failed := r.Failed(); failed {
		return nil, corrupt(off, "%s", msg)
	}
	if r.Remaining() != 0 {
		return nil, corrupt(r.Off(), "%d trailing bytes after end-of-sections", r.Remaining())
	}

	if sd.Mode != ModeDirect && sd.Mode != ModeTypeAware {
		return nil, corrupt(0, "unknown transformation mode %d", sd.Mode)
	}
	required := []uint8{secVerts, secPreds, secGraph, secTriples}
	if sd.Mode == ModeTypeAware {
		required = append(required, secLabels, secLsimple)
	} else {
		for _, tag := range []uint8{secLabels, secLsimple} {
			if _, ok := sections[tag]; ok {
				return nil, corrupt(0, "section %d present under direct mode", tag)
			}
		}
	}
	for _, tag := range required {
		if _, ok := sections[tag]; !ok {
			return nil, corrupt(0, "missing section %d", tag)
		}
	}

	var err error
	if sd.Verts, err = decodeDict(sections[secVerts], "verts"); err != nil {
		return nil, err
	}
	if sd.Mode == ModeTypeAware {
		if sd.Labels, err = decodeDict(sections[secLabels], "labels"); err != nil {
			return nil, err
		}
	}
	if sd.Preds, err = decodeDict(sections[secPreds], "preds"); err != nil {
		return nil, err
	}
	if sd.Graph, err = graph.DecodeSnapshot(sections[secGraph]); err != nil {
		return nil, err
	}
	// Cross-check the graph's ID spaces against the dictionaries: vertex,
	// label, and edge-label IDs are materialized back to terms by indexing
	// the dictionaries, so a graph claiming a larger space than its
	// dictionary would panic at query time.
	if sd.Graph.NumVertices() > sd.Verts.Len() {
		return nil, corrupt(0, "graph has %d vertices, verts dictionary has %d terms", sd.Graph.NumVertices(), sd.Verts.Len())
	}
	if sd.Graph.NumEdgeLabels() > sd.Preds.Len() {
		return nil, corrupt(0, "graph has %d edge labels, preds dictionary has %d terms", sd.Graph.NumEdgeLabels(), sd.Preds.Len())
	}
	labelSpace := 0
	if sd.Labels != nil {
		labelSpace = sd.Labels.Len()
	}
	if sd.Graph.NumLabels() > labelSpace {
		return nil, corrupt(0, "graph has %d vertex labels, labels dictionary has %d terms", sd.Graph.NumLabels(), labelSpace)
	}
	if sd.Mode == ModeTypeAware {
		if err := decodeLsimple(sd, sections[secLsimple]); err != nil {
			return nil, err
		}
	}
	if err := decodeTriples(sd, sections[secTriples], tripleCount); err != nil {
		return nil, err
	}
	return sd, nil
}

func decodeDict(blob []byte, name string) (*rdf.Dictionary, error) {
	d, err := rdf.DecodeDictionary(blob)
	if err != nil {
		return nil, fmt.Errorf("%s dictionary: %w", name, err)
	}
	return d, nil
}

// decodeLsimple validates the Lsimple CSR against the decoded graph and
// labels dictionary: SimpleTypes slices with offset pairs and TermOfLabel
// indexes the labels dictionary, so both must be in range.
func decodeLsimple(sd *SegmentData, blob []byte) error {
	r := wire.NewReader(blob)
	off := r.Ints("Lsimple offsets")
	set := r.U32s("Lsimple labels")
	if failOff, msg, failed := r.Failed(); failed {
		return corrupt(failOff, "Lsimple: %s", msg)
	}
	if r.Remaining() != 0 {
		return corrupt(r.Off(), "Lsimple: trailing bytes")
	}
	n := sd.Graph.NumVertices()
	if len(off) != n+1 || off[0] != 0 {
		return corrupt(0, "Lsimple: offsets do not cover %d vertices", n)
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return corrupt(0, "Lsimple: offsets decrease at %d", i)
		}
	}
	if off[n] != len(set) {
		return corrupt(0, "Lsimple: offsets end at %d, label array has %d", off[n], len(set))
	}
	limit := uint32(sd.Labels.Len())
	for _, l := range set {
		if l >= limit {
			return corrupt(0, "Lsimple: label %d outside the dictionary (%d terms)", l, limit)
		}
	}
	sd.SimpleOff, sd.Simple = off, set
	return nil
}

// Term-reference tags of the triples section.
const (
	refVert     = 0 // u32 ID in the verts dictionary
	refLabel    = 1 // u32 ID in the labels dictionary
	refPred     = 2 // u32 ID in the preds dictionary
	refType     = 3 // rdf:type, no payload
	refSubClass = 4 // rdfs:subClassOf, no payload
	refInline   = 5 // uvarint-length-prefixed term string
)

func appendTermRef(dst []byte, t rdf.Term, sd *SegmentData) []byte {
	if id, ok := sd.Verts.Lookup(t); ok {
		return wire.AppendU32(wire.AppendU8(dst, refVert), id)
	}
	if sd.Labels != nil {
		if id, ok := sd.Labels.Lookup(t); ok {
			return wire.AppendU32(wire.AppendU8(dst, refLabel), id)
		}
	}
	switch t {
	case rdf.TypeTerm:
		return wire.AppendU8(dst, refType)
	case rdf.SubClassTerm:
		return wire.AppendU8(dst, refSubClass)
	}
	if id, ok := sd.Preds.Lookup(t); ok {
		return wire.AppendU32(wire.AppendU8(dst, refPred), id)
	}
	return wire.AppendString(wire.AppendU8(dst, refInline), string(t))
}

func encodeTriples(sd *SegmentData) []byte {
	var b []byte
	for _, t := range sd.Triples {
		b = appendTermRef(b, t.S, sd)
		b = appendTermRef(b, t.P, sd)
		b = appendTermRef(b, t.O, sd)
	}
	return b
}

func decodeTermRef(r *wire.Reader, sd *SegmentData) (rdf.Term, uint8, error) {
	tag := r.U8()
	switch tag {
	case refVert, refLabel, refPred:
		id := r.U32()
		if _, _, failed := r.Failed(); failed {
			return "", tag, corrupt(r.Off(), "truncated term reference")
		}
		var d *rdf.Dictionary
		name := ""
		switch tag {
		case refVert:
			d, name = sd.Verts, "verts"
		case refLabel:
			d, name = sd.Labels, "labels"
		case refPred:
			d, name = sd.Preds, "preds"
		}
		if d == nil || int(id) >= d.Len() {
			return "", tag, corrupt(r.Off(), "triple term ID %d outside the %s dictionary", id, name)
		}
		return d.Term(id), tag, nil
	case refType:
		return rdf.TypeTerm, tag, nil
	case refSubClass:
		return rdf.SubClassTerm, tag, nil
	case refInline:
		b := r.Bytes("inline term")
		if _, _, failed := r.Failed(); failed {
			return "", tag, corrupt(r.Off(), "truncated inline term")
		}
		return rdf.Term(b), tag, nil
	}
	if _, _, failed := r.Failed(); failed {
		return "", tag, corrupt(r.Off(), "truncated term reference")
	}
	return "", tag, corrupt(r.Off(), "unknown term-reference tag %d", tag)
}

// requireDict validates one decoded term against the dictionary its triple
// position demands. The common case is free: a term whose reference tag
// already names the required dictionary was range-checked during decode. The
// fallback lookup covers terms that happen to be interned in several
// dictionaries (the encoder picks the first match) — and rejects terms the
// required dictionary does not hold at all.
func requireDict(off int, term rdf.Term, tag, want uint8, d *rdf.Dictionary, name string) error {
	if tag == want {
		return nil
	}
	if d != nil {
		if _, ok := d.Lookup(term); ok {
			return nil
		}
	}
	return corrupt(off, "triple term %s missing from the %s dictionary", term, name)
}

func decodeTriples(sd *SegmentData, blob []byte, count uint64) error {
	// Each triple costs at least 3 tag bytes, so a count beyond len/3 is
	// corrupt; checking first keeps a poisoned header count from reserving
	// unbounded memory.
	if count > uint64(len(blob)/3) {
		return corrupt(0, "triple count %d exceeds the triples section", count)
	}
	r := wire.NewReader(blob)
	triples := make([]rdf.Triple, 0, int(count))
	// This single pass both decodes and validates: each term must live in
	// the dictionary its position requires, so consumers can trust the list
	// without re-checking membership triple by triple (sd.Validated). The
	// tag-based fast path makes validation nearly free — it matters, since
	// this loop dominates cold start on large stores.
	typeAware := sd.Mode == ModeTypeAware
	for i := uint64(0); i < count; i++ {
		var t rdf.Triple
		var tagS, tagP, tagO uint8
		var err error
		if t.S, tagS, err = decodeTermRef(r, sd); err != nil {
			return err
		}
		if t.P, tagP, err = decodeTermRef(r, sd); err != nil {
			return err
		}
		if t.O, tagO, err = decodeTermRef(r, sd); err != nil {
			return err
		}
		switch {
		case typeAware && t.P.IRIValue() == rdf.RDFType:
			err = requireDict(r.Off(), t.S, tagS, refVert, sd.Verts, "verts")
			if err == nil {
				err = requireDict(r.Off(), t.O, tagO, refLabel, sd.Labels, "labels")
			}
		case typeAware && t.P.IRIValue() == rdf.RDFSSubClass:
			err = requireDict(r.Off(), t.S, tagS, refLabel, sd.Labels, "labels")
			if err == nil {
				err = requireDict(r.Off(), t.O, tagO, refLabel, sd.Labels, "labels")
			}
		default:
			err = requireDict(r.Off(), t.S, tagS, refVert, sd.Verts, "verts")
			if err == nil {
				err = requireDict(r.Off(), t.O, tagO, refVert, sd.Verts, "verts")
			}
			if err == nil {
				err = requireDict(r.Off(), t.P, tagP, refPred, sd.Preds, "preds")
			}
		}
		if err != nil {
			return err
		}
		if n := len(triples); n > 0 && triples[n-1] == t {
			return corrupt(r.Off(), "duplicate triple %v", t)
		}
		triples = append(triples, t)
	}
	if r.Remaining() != 0 {
		return corrupt(r.Off(), "%d trailing bytes after %d triples", r.Remaining(), count)
	}
	sd.Triples = triples
	sd.Validated = true
	return nil
}
