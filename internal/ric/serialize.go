package ric

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"imc/internal/graph"
)

// Pool serialization: RIC sampling dominates end-to-end runtime on
// large instances, so a pool is worth persisting when several solver
// configurations will be compared against the same sample set, and the
// pool cache shares snapshots across requests.
//
// Layout (little endian), format v3:
//
//	magic    [4]byte  "IMCP"
//	version  uint32   (3)
//	seed     uint64   the pool's PRNG seed (sample i ← stream i)
//	model    uint32   diffusion model tag (IC=1, LT=2)
//	wdigest  uint64   graph.WeightDigest of the sampled graph
//	n        uint64   node count (must match the pool's graph on load)
//	r        uint64   community count (must match the partition)
//	samples  uint64   sample count at save time
//	per sample: comm uint32, threshold uint32, numMembers uint32,
//	            covers uint32, then per cover:
//	            node uint32, words uint32, words×uint64 mask
//
// v2 exists because v1 carried no identity: a v1 snapshot saved under a
// different seed or model passed every shape check on a same-shaped
// graph, and a subsequent DoubleCtx drew extension samples from the
// *pool's* seed — silently mixing PRNG streams. The v2 header pins
// seed, model, and the exact weighted graph, so a loaded snapshot is
// guaranteed to extend the sample sequence it claims to be a prefix of.
// v1 streams are rejected outright: they cannot be trusted.
//
// v3 has v2's layout byte for byte; the version is the sampler's. From
// v3 on, a node whose in-edges share one weight is decided by the
// count-then-positions kernel (xrand.(*RNG).LiveCount) where
// xrand.UseCount admits it, which draws other variates than v2's
// per-edge coins, so sample i of stream i changed. A v2 prefix extended
// with v3 samples would mix the two samplers: v2 streams are rejected
// with an upgrade error too.
//
// The per-sample record body is shared with the IMCS shard-range export
// (shardio.go) via poolEncoder/poolDecoder, so the two formats cannot
// drift apart.
//
// The inverted index and community frequencies are rebuilt on load.

var poolMagic = [4]byte{'I', 'M', 'C', 'P'}

const (
	poolVersion = 3
	// poolHeaderSize is the fixed v3 header length: magic, version,
	// seed, model, wdigest, n, r, samples.
	poolHeaderSize = 4 + 4 + 8 + 4 + 8 + 8 + 8 + 8
)

// poolEncoder assembles the little-endian primitives and per-sample
// records shared by the IMCP (full pool) and IMCS (shard range)
// formats in its own buffer and hands them to w in runs of about
// encodeFlush bytes. The buffer grows to what the stream needs, so a
// short shard range costs a few kilobytes, not a fixed-size writer.
type poolEncoder struct {
	w   io.Writer
	buf []byte
}

// encodeFlush is how many buffered bytes trigger a write to the
// underlying writer.
const encodeFlush = 64 << 10

func (e *poolEncoder) put32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

func (e *poolEncoder) put64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// flush writes out the buffered bytes once at least atLeast of them
// are waiting (flush(1) writes whatever is left).
func (e *poolEncoder) flush(atLeast int) error {
	if len(e.buf) < atLeast {
		return nil
	}
	_, err := e.w.Write(e.buf)
	e.buf = e.buf[:0]
	return err
}

// encodeSample appends sample i's record: comm, threshold, numMembers,
// cover count, then each cover's node, mask width, and mask words. The
// covers come from the sample-major view in ascending node order, and
// each mask is written at the sample's natural width ⌈NumMembers/64⌉,
// not the pool's padded W, so the bytes do not depend on the index
// layout.
func (e *poolEncoder) encodeSample(smp Sample, covers *CoverView, i int) error {
	words := maskWords(int(smp.NumMembers))
	lo, hi := covers.Start[i], covers.Start[i+1]
	b := e.buf
	b = binary.LittleEndian.AppendUint32(b, uint32(smp.Comm))
	b = binary.LittleEndian.AppendUint32(b, uint32(smp.Threshold))
	b = binary.LittleEndian.AppendUint32(b, uint32(smp.NumMembers))
	b = binary.LittleEndian.AppendUint32(b, uint32(hi-lo))
	for k := lo; k < hi; k++ {
		b = binary.LittleEndian.AppendUint32(b, uint32(covers.Nodes[k]))
		b = binary.LittleEndian.AppendUint32(b, uint32(words))
		for _, word := range covers.Mask(k)[:words] {
			b = binary.LittleEndian.AppendUint64(b, word)
		}
	}
	e.buf = b
	return e.flush(encodeFlush)
}

// Save serializes the pool's samples and cover index in format v3. The
// header carries the pool's identity (seed, model, weight digest), so
// ReadInto can refuse a snapshot that would fork the PRNG streams.
//
// Only offset-0 pools can be saved: the IMCP header has no range field,
// so a shard pool's samples would silently be misread as the sequence
// prefix on load. Shards persist through ExportRange instead.
func (p *Pool) Save(w io.Writer) error {
	if p.offset != 0 {
		return fmt.Errorf("ric: Save requires an offset-0 pool, this shard starts at stream %d (use ExportRange)", p.offset)
	}
	enc := &poolEncoder{w: w}
	enc.buf = append(enc.buf, poolMagic[:]...)
	enc.put32(poolVersion)
	p.encodeIdentity(enc)
	enc.put64(uint64(len(p.samples)))
	// Rebuild the per-sample cover lists from the inverted index.
	covers := p.SampleCovers()
	for i, smp := range p.samples {
		if err := enc.encodeSample(smp, covers, i); err != nil {
			return fmt.Errorf("ric: write pool: %w", err)
		}
	}
	if err := enc.flush(1); err != nil {
		return fmt.Errorf("ric: write pool: %w", err)
	}
	return nil
}

// encodeIdentity appends the shared identity block: seed, model tag,
// weight digest, node count, community count.
func (p *Pool) encodeIdentity(enc *poolEncoder) {
	enc.put64(p.seed)
	enc.put32(uint32(p.model))
	enc.put64(p.g.WeightDigest())
	enc.put64(uint64(p.g.NumNodes()))
	enc.put64(uint64(p.part.NumCommunities()))
}

// poolDecoder reads the primitives and per-sample records shared by the
// IMCP and IMCS formats. It keeps its own read-ahead window, so a
// fixed-size field costs a bounds check and a load rather than a chain
// of Read calls. kind names the stream ("pool snapshot" or "shard
// export") in error messages.
type poolDecoder struct {
	r          io.Reader
	kind       string
	buf        []byte // buf[head:tail] has been read from r but not consumed
	head, tail int
	off        int64 // bytes consumed, so errors can name exact offsets
	err        error // r's last error, returned once the window drains

	// The staged samples' cover nodes and mask words are carved out of
	// these shared arenas rather than allocated per sample.
	nodes arena[graph.NodeID]
	bits  arena[uint64]
}

func newPoolDecoder(r io.Reader, kind string) *poolDecoder {
	return &poolDecoder{r: r, kind: kind, buf: make([]byte, 64<<10)}
}

// next consumes and returns the next n bytes, valid until the following
// call. On a short stream it consumes nothing and returns the bytes
// that were there, with the error io.ReadFull would give: io.EOF when
// there were none, io.ErrUnexpectedEOF when there were some.
func (d *poolDecoder) next(n int) ([]byte, error) {
	if d.tail-d.head < n {
		if err := d.fill(n); err != nil {
			return d.buf[d.head:d.tail], err
		}
	}
	b := d.buf[d.head : d.head+n]
	d.head += n
	d.off += int64(n)
	return b, nil
}

// fill moves the unconsumed bytes to the front of the window, growing it
// if n bytes would not fit, and reads until n bytes are buffered.
func (d *poolDecoder) fill(n int) error {
	if len(d.buf) < n {
		grown := make([]byte, n)
		d.tail = copy(grown, d.buf[d.head:d.tail])
		d.buf = grown
	} else {
		d.tail = copy(d.buf, d.buf[d.head:d.tail])
	}
	d.head = 0
	for d.tail < n {
		if d.err != nil {
			if d.err == io.EOF && d.tail > 0 {
				return io.ErrUnexpectedEOF
			}
			return d.err
		}
		var m int
		m, d.err = d.r.Read(d.buf[d.tail:])
		d.tail += m
	}
	return nil
}

// magic reads the stream's 4-byte format magic.
func (d *poolDecoder) magic() (magic [4]byte, err error) {
	b, err := d.next(4)
	copy(magic[:], b)
	return magic, err
}

// The getters name the field they read with a format string and its
// integer arguments, formatted only when the read fails: a pool
// decodes millions of fields, and eager names cost an allocation each.

func (d *poolDecoder) get32(field string, args ...int) (uint32, error) {
	b, err := d.next(4)
	if err != nil {
		return 0, d.truncated(err, field, args...)
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (d *poolDecoder) get64(field string, args ...int) (uint64, error) {
	b, err := d.next(8)
	if err != nil {
		return 0, d.truncated(err, field, args...)
	}
	return binary.LittleEndian.Uint64(b), nil
}

// truncated builds the error for a failed read of the named field.
func (d *poolDecoder) truncated(err error, field string, args ...int) error {
	vals := make([]any, len(args))
	for i, a := range args {
		vals[i] = a
	}
	return fmt.Errorf("ric: %s truncated reading %s: %w", d.kind, fmt.Sprintf(field, vals...), noEOF(err))
}

// end verifies the stream finishes exactly where the declared records
// do: a truncated-then-concatenated or otherwise corrupt file that
// still parses as a prefix would previously be accepted silently.
func (d *poolDecoder) end() error {
	if _, err := d.next(1); err == nil {
		return fmt.Errorf("ric: %s has trailing bytes after the last sample at offset %d", d.kind, d.off-1)
	} else if err != io.EOF {
		return fmt.Errorf("ric: %s read after last sample at offset %d: %w", d.kind, d.off, err)
	}
	return nil
}

// checkIdentity reads the shared identity block and validates it
// against the family: seed, model tag, and weight digest must match
// exactly — a stream taken under a different seed or diffusion model,
// or over a different weighted graph of the same shape, is rejected
// instead of silently forking the PRNG streams on the next growth.
func (p *family) checkIdentity(d *poolDecoder) error {
	seed, err := d.get64("seed")
	if err != nil {
		return err
	}
	if seed != p.seed {
		return fmt.Errorf("ric: %s was sampled with seed %d, pool has seed %d — loading would mix PRNG streams", d.kind, seed, p.seed)
	}
	model, err := d.get32("model")
	if err != nil {
		return err
	}
	if model != uint32(p.model) {
		return fmt.Errorf("ric: %s was sampled under model %d, pool uses model %d", d.kind, model, uint32(p.model))
	}
	wdigest, err := d.get64("weight digest")
	if err != nil {
		return err
	}
	if want := p.g.WeightDigest(); wdigest != want {
		return fmt.Errorf("ric: %s weight digest %016x does not match graph digest %016x — different edges or weights", d.kind, wdigest, want)
	}
	n, err := d.get64("node count")
	if err != nil {
		return err
	}
	if int(n) != p.g.NumNodes() {
		return fmt.Errorf("ric: %s was sampled over %d nodes, graph has %d", d.kind, n, p.g.NumNodes())
	}
	r64, err := d.get64("community count")
	if err != nil {
		return err
	}
	if int(r64) != p.part.NumCommunities() {
		return fmt.Errorf("ric: %s has %d communities, partition has %d", d.kind, r64, p.part.NumCommunities())
	}
	return nil
}

// decodeChunk caps every allocation sized from a count the stream
// declares before the bytes behind it have arrived, so a corrupt count
// costs a bounded allocation and then a truncation error; records
// below the cap, which real pools produce, still get exact-size room.
// It is also the most cover-record bytes decodeSample takes at once.
const decodeChunk = 1 << 16

// arenaFirstChunk is the length of an arena's first chunk; each later
// chunk is eight times longer, up to decodeChunk elements. A few large
// steps keep a big snapshot's chunk count low, and a short range
// still stages in a few kilobytes.
const arenaFirstChunk = 512

// arena hands out sub-slices of shared chunks, so staging a decoded
// sample costs no allocation of its own. Chunks grow geometrically, so
// a short shard range stages in a few small chunks and a full snapshot
// in few large ones.
type arena[T any] struct {
	free []T // the current chunk's unreserved tail
	next int // length of the next chunk
}

// reserve returns an empty slice with room for n elements, carved from
// the current chunk or from a new one when n does not fit. The slice's
// capacity is exactly n, so appending past n reallocates instead of
// running into the next reservation.
func (a *arena[T]) reserve(n int) []T {
	if n > len(a.free) {
		a.next = min(max(8*a.next, arenaFirstChunk), decodeChunk)
		a.free = make([]T, max(a.next, n))
	}
	s := a.free[:0:n]
	a.free = a.free[n:]
	return s
}

// decodeSamples reads, validates, and stages the records for global
// samples [lo, hi), then checks the stream ends right after them. It
// never touches a pool's sample state: the caller folds the staged
// samples in only once the whole stream has decoded, so a failed
// decode leaves the pool exactly as it was.
func (p *family) decodeSamples(d *poolDecoder, lo, hi int) ([]rawSample, error) {
	raws := make([]rawSample, 0, min(hi-lo, decodeChunk))
	for i := lo; i < hi; i++ {
		raw, err := p.decodeSample(d, i)
		if err != nil {
			return nil, err
		}
		raws = append(raws, raw)
	}
	return raws, d.end()
}

// Canonical-form violations decodeSample rejects. Every in-tree encoder
// writes covers in ascending node order with nonzero masks that set no
// bit at or above the member count, so an input that breaks one of
// these is corrupt, and rejecting it makes the codec canonical: an
// accepted stream re-encodes to its own bytes.
var (
	errCoverOrder = errors.New("cover nodes not strictly ascending")
	errEmptyMask  = errors.New("cover mask is empty")
	errMaskRange  = errors.New("cover mask sets a bit at or above the member count")
)

// decodeSample reads and validates one sample record. i names the
// record in error messages. Every count is validated against the
// family's graph and partition (community range, member counts,
// thresholds, exact mask widths), and every cover against the
// canonical form (ascending nodes, nonzero in-range masks), so
// truncated or corrupt input surfaces as a descriptive error naming
// the field being read — never a panic. The sample's cover nodes and
// masks (at natural width, as Generate writes them) are staged in the
// decoder's arenas.
//
// Once the cover count and mask width are known every cover record
// has the same size, so the records are taken whole, up to decodeChunk
// bytes at a time, and parsed in place. A short stream hands back the
// bytes that did arrive, and the same loop parses those until it
// reaches the first field they cannot complete: the error names that
// field exactly as field-by-field reads would.
func (p *family) decodeSample(d *poolDecoder, i int) (rawSample, error) {
	comm, err := d.get32("sample %d community", i)
	if err != nil {
		return rawSample{}, err
	}
	if int(comm) >= p.part.NumCommunities() {
		return rawSample{}, fmt.Errorf("ric: sample %d: community %d out of range [0, %d)", i, comm, p.part.NumCommunities())
	}
	threshold, err := d.get32("sample %d threshold", i)
	if err != nil {
		return rawSample{}, err
	}
	numMembers, err := d.get32("sample %d member count", i)
	if err != nil {
		return rawSample{}, err
	}
	// A sample's member count is the size of its source community and
	// its threshold sits in [1, members]; the encoder can emit nothing
	// else, so anything different is corruption, not a format variant.
	if want := len(p.part.Community(int(comm)).Members); int(numMembers) != want {
		return rawSample{}, fmt.Errorf("ric: sample %d: %d members recorded but community %d has %d", i, numMembers, comm, want)
	}
	if threshold < 1 || threshold > numMembers {
		return rawSample{}, fmt.Errorf("ric: sample %d: threshold %d out of [1, %d members]", i, threshold, numMembers)
	}
	coverCount, err := d.get32("sample %d cover count", i)
	if err != nil {
		return rawSample{}, err
	}
	if int(coverCount) > p.g.NumNodes() {
		return rawSample{}, fmt.Errorf("ric: sample %d: %d covers exceed node count %d", i, coverCount, p.g.NumNodes())
	}
	covers := int(coverCount)
	words := maskWords(int(numMembers))
	// The last word keeps only the low numMembers%64 bits (all 64 when
	// the count is a multiple of 64).
	topMask := ^uint64(0)
	if r := int(numMembers) % maskWordBits; r != 0 {
		topMask = 1<<uint(r) - 1
	}
	raw := rawSample{
		comm:       int32(comm),
		threshold:  int32(threshold),
		numMembers: int32(numMembers),
		coverNodes: d.nodes.reserve(min(covers, decodeChunk)),
		coverBits:  d.bits.reserve(min(covers*words, decodeChunk)),
	}
	// A cover record is node uint32, width uint32, words×uint64 mask.
	size := 8 + 8*words
	batch := max(1, decodeChunk/size)
	// Once the stream runs short, b holds all that is left of it, and
	// the first field b cannot complete is reported with the reader's
	// error d.err, which truncated maps exactly as it maps next's.
	var (
		b     []byte // records taken from the stream and not yet parsed
		short bool   // the stream ran out before the last record
	)
	prev := -1
	for c := 0; c < covers; c++ {
		if len(b) == 0 && !short {
			var err error
			b, err = d.next(min(covers-c, batch) * size)
			short = err != nil
		}
		if len(b) < 4 {
			return rawSample{}, d.truncated(d.err, "sample %d cover %d node", i, c)
		}
		node := binary.LittleEndian.Uint32(b)
		if int(node) >= p.g.NumNodes() {
			return rawSample{}, fmt.Errorf("ric: sample %d: cover node %d out of range [0, %d)", i, node, p.g.NumNodes())
		}
		// A repeated node would index the sample twice under it, and
		// coverage gains would then count the sample twice.
		if int(node) <= prev {
			return rawSample{}, fmt.Errorf("ric: sample %d cover %d: node %d after node %d: %w", i, c, node, prev, errCoverOrder)
		}
		prev = int(node)
		if len(b) < 8 {
			return rawSample{}, d.truncated(d.err, "sample %d cover %d mask width", i, c)
		}
		// Masks carry one bit per member, so the width is fully
		// determined; a short mask would later index out of range in
		// the solvers, a long one would corrupt union counts.
		if width := binary.LittleEndian.Uint32(b[4:]); int(width) != words {
			return rawSample{}, fmt.Errorf("ric: sample %d: mask of %d words for %d members (want %d)", i, width, numMembers, words)
		}
		if len(b) < size {
			return rawSample{}, d.truncated(d.err, "sample %d cover %d mask word %d", i, c, (len(b)-8)/8)
		}
		at := len(raw.coverBits)
		for k := 8; k < size; k += 8 {
			raw.coverBits = append(raw.coverBits, binary.LittleEndian.Uint64(b[k:]))
		}
		b = b[size:]
		// A bit past the last member counts a member that does not
		// exist; an empty mask indexes a node that covers nothing.
		m := Mask(raw.coverBits[at:])
		if m[words-1]&^topMask != 0 {
			return rawSample{}, fmt.Errorf("ric: sample %d cover %d (node %d): %w (%d members)", i, c, node, errMaskRange, numMembers)
		}
		if m.OnesCount() == 0 {
			return rawSample{}, fmt.Errorf("ric: sample %d cover %d (node %d): %w", i, c, node, errEmptyMask)
		}
		raw.coverNodes = append(raw.coverNodes, graph.NodeID(node))
	}
	return raw, nil
}

// ReadInto deserializes samples written by Save into the pool, which
// must be freshly created over the same graph and partition with the
// same seed and model, and still empty. Decoding is defensive on two
// axes:
//
// Identity: the header's seed, model tag, and weight digest must
// match the pool's exactly — a snapshot taken under a different seed or
// diffusion model, or over a different weighted graph of the same
// shape, is rejected instead of silently forking the PRNG streams on
// the next growth. v1 and v2 streams are rejected with an upgrade
// error: v1 carries no identity, and v2's samples come from the
// previous reverse sampler.
//
// Shape: every count is validated against the pool's graph and
// partition (community range, member counts, thresholds, exact mask
// widths), the stream must end exactly at the last declared sample
// (trailing bytes are corruption, not slack), and truncated or corrupt
// input surfaces as a descriptive error naming the field being read —
// never a panic. On any error the pool is left empty: samples are
// staged and folded in only once the whole stream has decoded.
//
// Only offset-0 pools can load a snapshot: IMCP records the sequence
// prefix [0, samples), which is not the slice a shard pool holds.
// ReadDonor runs the same decode and keeps the samples staged instead.
func (p *Pool) ReadInto(r io.Reader) error {
	if p.offset != 0 {
		return fmt.Errorf("ric: ReadInto requires an offset-0 pool, this shard starts at stream %d (use ImportRange)", p.offset)
	}
	if len(p.samples) != 0 {
		return fmt.Errorf("ric: ReadInto requires an empty pool, have %d samples", len(p.samples))
	}
	raws, err := p.readSnapshot(r)
	if err != nil {
		return err
	}
	p.fold(raws)
	return nil
}

// readSnapshot decodes and validates an IMCP stream written by Save,
// staging its samples without folding them anywhere: ReadInto folds
// them into a pool, ReadDonor keeps them as a donor.
func (p *family) readSnapshot(r io.Reader) ([]rawSample, error) {
	d, count, err := p.openSnapshot(r)
	if err != nil {
		return nil, err
	}
	return p.decodeSamples(d, 0, count)
}

// openSnapshot validates an IMCP stream's header — magic, version,
// identity block — and returns the decoder positioned at the first
// record, with the declared sample count.
func (p *family) openSnapshot(r io.Reader) (*poolDecoder, int, error) {
	d := newPoolDecoder(r, "pool snapshot")
	magic, err := d.magic()
	if err != nil {
		return nil, 0, fmt.Errorf("ric: pool snapshot truncated reading magic: %w", err)
	}
	if magic != poolMagic {
		return nil, 0, fmt.Errorf("ric: bad pool magic %q", magic)
	}
	version, err := d.get32("version")
	if err != nil {
		return nil, 0, err
	}
	if err := checkVersion(poolMagic, version); err != nil {
		return nil, 0, err
	}
	if err := p.checkIdentity(d); err != nil {
		return nil, 0, err
	}
	count, err := d.get64("sample count")
	if err != nil {
		return nil, 0, err
	}
	if count >= 1<<31 {
		return nil, 0, fmt.Errorf("ric: sample count %d out of range", count)
	}
	return d, int(count), nil
}

// StreamHeaderSize is the length of the prefix every IMCP and IMCS
// stream opens with: the 4-byte magic and the uint32 version.
const StreamHeaderSize = 8

// CheckStreamHeader reports whether head, a stream's first
// StreamHeaderSize bytes, opens a stream this build decodes: an IMCP
// pool snapshot or an IMCS shard range at its current version. It
// returns the error the full decode would give for a stream of another
// format or version, without reading further, so a store can tell an
// entry that can never load from its header alone.
func CheckStreamHeader(head []byte) error {
	if len(head) < StreamHeaderSize {
		return fmt.Errorf("ric: stream header truncated: %d of %d bytes", len(head), StreamHeaderSize)
	}
	magic := [4]byte(head[:4])
	if magic != poolMagic && magic != shardMagic {
		return fmt.Errorf("ric: bad stream magic %q", magic)
	}
	return checkVersion(magic, binary.LittleEndian.Uint32(head[4:8]))
}

// checkVersion accepts the current version of the IMCP (poolMagic) or
// IMCS (shardMagic) format, and names why any other one cannot load.
func checkVersion(magic [4]byte, version uint32) error {
	if magic == shardMagic {
		switch version {
		case shardVersion:
			return nil
		case 1:
			return fmt.Errorf("ric: shard export is format v1, drawn by the previous reverse sampler; upgrade the worker to export v%d", shardVersion)
		}
		return fmt.Errorf("ric: unsupported shard export version %d (want %d)", version, shardVersion)
	}
	switch version {
	case poolVersion:
		return nil
	case 1:
		return fmt.Errorf("ric: pool snapshot is format v1, which carries no identity (seed/model/weights) and cannot be validated; regenerate the pool and re-save as v%d", poolVersion)
	case 2:
		return fmt.Errorf("ric: pool snapshot is format v2, whose samples were drawn by the previous reverse sampler and do not extend under the current one; regenerate the pool and re-save as v%d", poolVersion)
	}
	return fmt.Errorf("ric: unsupported pool version %d (want %d)", version, poolVersion)
}

// noEOF normalizes a bare io.EOF from a partial ReadFull into
// io.ErrUnexpectedEOF: inside a declared record, running out of bytes
// is always truncation, never a clean end of stream.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
