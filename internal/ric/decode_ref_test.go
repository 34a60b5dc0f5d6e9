package ric

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"
	"testing/iotest"

	"imc/internal/graph"
)

// The reference record decoder: decodeSample as it was before cover
// records were block-decoded, kept verbatim — one read per field, one
// read per mask, two fresh slices per sample. FuzzDecodeMatchesReference
// holds the block decoder to it: same verdict, same error text, same
// staged samples, on every input.

// getMask appends one words-wide mask from the stream to dst with one
// read. A short read names the first word it could not complete, exactly
// as word-by-word reads would.
func (d *poolDecoder) getMask(dst []uint64, words, i, c int) ([]uint64, error) {
	b, err := d.next(words * 8)
	if err != nil {
		return dst, d.truncated(err, "sample %d cover %d mask word %d", i, c, len(b)/8)
	}
	for wi := 0; wi < words; wi++ {
		dst = append(dst, binary.LittleEndian.Uint64(b[wi*8:]))
	}
	return dst, nil
}

// refDecodeSamples is decodeSamples over the reference record decoder.
func (p *family) refDecodeSamples(d *poolDecoder, lo, hi int) ([]rawSample, error) {
	raws := make([]rawSample, 0, min(hi-lo, decodeChunk))
	for i := lo; i < hi; i++ {
		raw, err := p.refDecodeSample(d, i)
		if err != nil {
			return nil, err
		}
		raws = append(raws, raw)
	}
	return raws, d.end()
}

// refDecodeSample is decodeSample before block decoding, verbatim.
func (p *family) refDecodeSample(d *poolDecoder, i int) (rawSample, error) {
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
		coverNodes: make([]graph.NodeID, 0, min(covers, decodeChunk)),
		coverBits:  make([]uint64, 0, min(covers*words, decodeChunk)),
	}
	prev := -1
	for c := 0; c < covers; c++ {
		node, err := d.get32("sample %d cover %d node", i, c)
		if err != nil {
			return rawSample{}, err
		}
		if int(node) >= p.g.NumNodes() {
			return rawSample{}, fmt.Errorf("ric: sample %d: cover node %d out of range [0, %d)", i, node, p.g.NumNodes())
		}
		// A repeated node would index the sample twice under it, and
		// coverage gains would then count the sample twice.
		if int(node) <= prev {
			return rawSample{}, fmt.Errorf("ric: sample %d cover %d: node %d after node %d: %w", i, c, node, prev, errCoverOrder)
		}
		prev = int(node)
		width, err := d.get32("sample %d cover %d mask width", i, c)
		if err != nil {
			return rawSample{}, err
		}
		// Masks carry one bit per member, so the width is fully
		// determined; a short mask would later index out of range in
		// the solvers, a long one would corrupt union counts.
		if int(width) != words {
			return rawSample{}, fmt.Errorf("ric: sample %d: mask of %d words for %d members (want %d)", i, width, numMembers, words)
		}
		if raw.coverBits, err = d.getMask(raw.coverBits, words, i, c); err != nil {
			return rawSample{}, err
		}
		// A bit past the last member counts a member that does not
		// exist; an empty mask indexes a node that covers nothing.
		m := Mask(raw.coverBits[len(raw.coverBits)-words:])
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

// sameRaws reports whether two staged sample lists hold the same
// samples, ignoring how their slices were allocated.
func sameRaws(a, b []rawSample) bool {
	return slices.EqualFunc(a, b, func(x, y rawSample) bool {
		return x.comm == y.comm && x.threshold == y.threshold && x.numMembers == y.numMembers &&
			slices.Equal(x.coverNodes, y.coverNodes) && slices.Equal(x.coverBits, y.coverBits)
	})
}

// shortestRecordOfWidth returns the offset and cover count of the
// record with the fewest covers among an IMCP stream's records whose
// masks are words wide.
func shortestRecordOfWidth(t testing.TB, snap []byte, words int) (at, covers int) {
	t.Helper()
	count := int(binary.LittleEndian.Uint64(snap[poolHeaderSize-8:]))
	at, covers = -1, 0
	for i, off := 0, poolHeaderSize; i < count; i++ {
		w := maskWords(int(binary.LittleEndian.Uint32(snap[off+8:])))
		n := int(binary.LittleEndian.Uint32(snap[off+12:]))
		if w == words && (at < 0 || n < covers) {
			at, covers = off, n
		}
		off += recordHeader + n*(8+8*w)
	}
	if at < 0 || covers < 2 {
		t.Fatalf("no %d-word record with two covers among %d samples", words, count)
	}
	return at, covers
}

// FuzzDecodeMatchesReference decodes IMCP snapshots and IMCS exports of
// codecInstance (mask widths 1 to 3) with the block decoder and with
// the reference, after the same header checks. Both must accept or
// both reject; a rejection must carry the same error text, and an
// acceptance must stage the same samples. With broken set, the reader
// fails with its own error where the data ends instead of io.EOF, so
// truncation errors must carry that error too.
func FuzzDecodeMatchesReference(f *testing.F) {
	const seed, have, total = 19, 4, 12
	g, part := codecInstance(f)
	src := buildPool(f, g, part, total, seed)
	var snap, export bytes.Buffer
	if err := src.Save(&snap); err != nil {
		f.Fatal(err)
	}
	if err := src.ExportRange(&export, have, total); err != nil {
		f.Fatal(err)
	}
	valid := snap.Bytes()
	f.Add(valid, false, false)
	f.Add(export.Bytes(), true, false)
	f.Add(export.Bytes()[:len(export.Bytes())-3], true, true)
	// A truncation at every field boundary of the shortest words-wide
	// record: its four header fields, then each cover's node, width and
	// mask words. addCuts returns the record's offset.
	addCuts := func(words int) int {
		rec, covers := shortestRecordOfWidth(f, valid, words)
		cover := 8 + 8*words
		cuts := []int{rec, rec + 4, rec + 8, rec + 12}
		for c := 0; c < covers; c++ {
			at := rec + recordHeader + c*cover
			cuts = append(cuts, at, at+4)
			for w := 0; w < words; w++ {
				cuts = append(cuts, at+8+8*w)
			}
		}
		cuts = append(cuts, rec+recordHeader+covers*cover)
		for k, cut := range cuts {
			f.Add(append([]byte(nil), valid[:cut]...), false, k%2 == 1)
		}
		return rec
	}
	rec := addCuts(3)
	// The three canonical-form corruptions of that record's first cover:
	// a mask bit above the 130 members, its node repeated by the next
	// cover, an empty mask.
	mask := rec + recordHeader + 8
	for _, corrupt := range []func(b []byte){
		func(b []byte) { b[mask+23] |= 0x80 },
		func(b []byte) { copy(b[mask-8+8+8*3:], b[mask-8:mask-4]) },
		func(b []byte) { clear(b[mask : mask+8*3]) },
	} {
		bad := append([]byte(nil), valid...)
		corrupt(bad)
		f.Add(bad, false, false)
	}
	// The same truncations for the 1- and 2-word masks, whose block
	// reads end at other offsets.
	addCuts(1)
	addCuts(2)

	// The IMCS stream splices onto the first have samples. Opening a
	// stream reads the pool but never changes it, so one pool serves
	// every input.
	base := buildPool(f, g, part, have, seed)
	errBroken := errors.New("connection reset")
	open := func(data []byte, shard, broken bool) (*poolDecoder, int, int, error) {
		var r io.Reader = bytes.NewReader(data)
		if broken {
			r = io.MultiReader(r, iotest.ErrReader(errBroken))
		}
		if shard {
			return base.openRange(r)
		}
		d, count, err := base.openSnapshot(r)
		return d, 0, count, err
	}
	f.Fuzz(func(t *testing.T, data []byte, shard, broken bool) {
		d, lo, hi, err := open(data, shard, broken)
		if err != nil {
			return // the header is checked once, ahead of either decoder
		}
		got, gotErr := base.decodeSamples(d, lo, hi)
		d, _, _, _ = open(data, shard, broken)
		want, wantErr := base.refDecodeSamples(d, lo, hi)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("block decoder: %v\nreference:     %v", gotErr, wantErr)
		}
		if !sameRaws(got, want) {
			t.Fatal("block decoder staged different samples than the reference")
		}
	})
}
