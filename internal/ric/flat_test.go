package ric

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"imc/internal/graph"
)

// Byte offsets into the records of a pool over smallInstance (3-member
// communities, one-word masks). An IMCS export's first sample record
// starts after magic, version, the 36-byte identity block, lo and hi;
// an IMCP snapshot's after magic, version, identity and the sample
// count. A record is comm, threshold, members and cover count, then
// per cover node, width and one mask word.
const (
	exportFirstRecord = 4 + 4 + 36 + 8 + 8
	saveFirstRecord   = 4 + 4 + 36 + 8
	recordHeader      = 16
	coverRecord       = 4 + 4 + 8
)

// sameIndex fails unless a and b hold the same samples and the same
// inverted index, run by run and word by word.
func sameIndex(t *testing.T, what string, a, b *Pool) {
	t.Helper()
	if a.NumSamples() != b.NumSamples() || a.Words() != b.Words() {
		t.Fatalf("%s: %d samples at W=%d, want %d at W=%d", what, b.NumSamples(), b.Words(), a.NumSamples(), a.Words())
	}
	for i := 0; i < a.NumSamples(); i++ {
		if a.Sample(i) != b.Sample(i) {
			t.Fatalf("%s: sample %d is %+v, want %+v", what, i, b.Sample(i), a.Sample(i))
		}
	}
	for v := graph.NodeID(0); int(v) < a.Graph().NumNodes(); v++ {
		aids, amasks := a.Entries(v)
		bids, bmasks := b.Entries(v)
		if !slices.Equal(aids, bids) || !slices.Equal(amasks, bmasks) {
			t.Fatalf("%s: node %d's index run differs", what, v)
		}
	}
}

// TestWidePoolPathsBuildOneIndex: on codecInstance (W = 3, with
// 2- and 1-word samples zero-padded to it), every way of assembling a
// pool — loading a snapshot, splicing shard exports, adopting from a
// donor — yields exactly the index Generate builds.
func TestWidePoolPathsBuildOneIndex(t *testing.T) {
	const total, seed = 300, 19
	g, part := codecInstance(t)
	fresh := func(offset int) *Pool {
		p, err := NewPool(g, part, PoolOptions{Seed: seed, Offset: offset})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	want := fresh(0)
	if err := want.Generate(total); err != nil {
		t.Fatal(err)
	}
	if want.Words() != 3 {
		t.Fatalf("codecInstance pool has W = %d, want 3", want.Words())
	}
	widths := map[int]bool{}
	for i := 0; i < want.NumSamples(); i++ {
		widths[maskWords(int(want.Sample(i).NumMembers))] = true
	}
	if len(widths) != 3 {
		t.Fatalf("samples span natural widths %v, want all of 1, 2 and 3", widths)
	}

	var snap bytes.Buffer
	if err := want.Save(&snap); err != nil {
		t.Fatal(err)
	}
	loaded := fresh(0)
	if err := loaded.ReadInto(&snap); err != nil {
		t.Fatal(err)
	}
	sameIndex(t, "Save→ReadInto", want, loaded)

	spliced := fresh(0)
	for _, r := range [][2]int{{0, 110}, {110, 111}, {111, total}} {
		shard := fresh(r[0])
		if err := shard.EnsureCtx(context.Background(), r[1]-r[0]); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := shard.ExportRange(&buf, r[0], r[1]); err != nil {
			t.Fatal(err)
		}
		if err := spliced.ImportRange(&buf, r[1]); err != nil {
			t.Fatal(err)
		}
	}
	sameIndex(t, "ExportRange→ImportRange", want, spliced)

	adopted := fresh(0)
	donor := donorOf(t, want)
	for _, target := range []int{1, 150, total} {
		if _, err := donor.ExtendTo(adopted, target); err != nil {
			t.Fatal(err)
		}
	}
	sameIndex(t, "Donor.ExtendTo", want, adopted)
}

// hasPointers reports whether values of type t hold any pointer the GC
// would have to trace.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
		return true
	default:
		return false
	}
}

// TestIndexElementsHoldNoPointers: the per-entry storage of the index,
// the sample-major view and a State is plain words, so the GC traces a
// fixed number of headers per node or per State, never one per entry.
func TestIndexElementsHoldNoPointers(t *testing.T) {
	g, part := smallInstance(t)
	pool := buildPool(t, g, part, 10, 1)
	st := pool.NewState()
	view := pool.SampleCovers()
	for name, s := range map[string]any{
		"Pool.samples":    pool.samples,
		"Pool.ids[v]":     pool.ids[0],
		"Pool.masks[v]":   pool.masks[0],
		"CoverView.Start": view.Start,
		"CoverView.Nodes": view.Nodes,
		"CoverView.Entry": view.Entry,
		"State.off":       st.off,
		"State.arena":     st.arena,
	} {
		if elem := reflect.TypeOf(s).Elem(); hasPointers(elem) {
			t.Errorf("%s elements (%v) contain pointers", name, elem)
		}
	}
	// The per-entry layout the flat index replaced, a sample id beside
	// a mask slice header, keeps hasPointers honest.
	if !hasPointers(reflect.TypeOf(struct {
		Sample int32
		Bits   Mask
	}{})) {
		t.Fatal("hasPointers misses a slice field")
	}
}

// TestDecoderRejectsNonCanonicalCovers: every in-tree encoder writes
// covers in strictly ascending node order with nonzero masks inside the
// member count. A stream breaking any of that — a bit at or above
// NumMembers, a repeated node, an empty mask — is rejected with its
// named error by both ImportRange and ReadInto, and leaves the pool
// untouched.
func TestDecoderRejectsNonCanonicalCovers(t *testing.T) {
	const seed = 3
	g, part := smallInstance(t)
	src := buildPool(t, g, part, 20, seed)
	var exp, snap bytes.Buffer
	if err := src.ExportRange(&exp, 0, 20); err != nil {
		t.Fatal(err)
	}
	if err := src.Save(&snap); err != nil {
		t.Fatal(err)
	}
	if src.Sample(0).NumMembers != 3 || src.Sample(0).TouchCount < 2 {
		t.Fatalf("sample 0 is %+v, want 3 members and at least 2 covers", src.Sample(0))
	}
	// Each corruption edits sample 0's record, which starts at rec.
	for _, tc := range []struct {
		name    string
		want    error
		corrupt func(b []byte, rec int)
	}{
		{"bit 63 of a 3-member mask", errMaskRange, func(b []byte, rec int) {
			b[rec+recordHeader+8+7] |= 0x80
		}},
		{"bit 3 of a 3-member mask", errMaskRange, func(b []byte, rec int) {
			b[rec+recordHeader+8] |= 0x08
		}},
		{"repeated cover node", errCoverOrder, func(b []byte, rec int) {
			first := rec + recordHeader
			copy(b[first+coverRecord:first+coverRecord+4], b[first:first+4])
		}},
		{"empty mask", errEmptyMask, func(b []byte, rec int) {
			clear(b[rec+recordHeader+8 : rec+recordHeader+16])
		}},
	} {
		bad := bytes.Clone(exp.Bytes())
		tc.corrupt(bad, exportFirstRecord)
		p, err := NewPool(g, part, PoolOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		before := capturePool(t, p)
		if err := p.ImportRange(bytes.NewReader(bad), 20); !errors.Is(err, tc.want) {
			t.Errorf("ImportRange, %s: got %v, want %v", tc.name, err, tc.want)
		}
		if !capturePool(t, p).equal(before) {
			t.Errorf("ImportRange, %s: rejected input changed the pool", tc.name)
		}

		bad = bytes.Clone(snap.Bytes())
		tc.corrupt(bad, saveFirstRecord)
		if err := p.ReadInto(bytes.NewReader(bad)); !errors.Is(err, tc.want) {
			t.Errorf("ReadInto, %s: got %v, want %v", tc.name, err, tc.want)
		}
		if p.NumSamples() != 0 {
			t.Errorf("ReadInto, %s: rejected input left %d samples", tc.name, p.NumSamples())
		}
	}
}
