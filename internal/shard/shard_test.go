package shard

import (
	"bytes"
	"testing"
)

// TestSplitRanges: decompositions are contiguous, disjoint, union the
// interval exactly, and use the ⌊width·w/n⌋ bounds every other piece
// of the runtime (and the xrand worker-count-independence test) pins.
func TestSplitRanges(t *testing.T) {
	for _, tc := range []struct{ lo, hi, n int }{
		{0, 256, 1}, {0, 256, 2}, {0, 256, 4}, {0, 257, 3},
		{100, 357, 4}, {5, 6, 3}, {0, 3, 8},
	} {
		ranges := SplitRanges(tc.lo, tc.hi, tc.n)
		next := tc.lo
		for i, r := range ranges {
			if r.Lo != next {
				t.Fatalf("SplitRanges(%d,%d,%d)[%d] starts at %d, want %d", tc.lo, tc.hi, tc.n, i, r.Lo, next)
			}
			if r.Hi <= r.Lo {
				t.Fatalf("SplitRanges(%d,%d,%d)[%d] is empty: %+v", tc.lo, tc.hi, tc.n, i, r)
			}
			width := tc.hi - tc.lo
			n := tc.n
			if n > width {
				n = width
			}
			if want := tc.lo + width*i/n; r.Lo != want {
				t.Fatalf("range %d lo = %d, want ⌊width·w/n⌋ bound %d", i, r.Lo, want)
			}
			next = r.Hi
		}
		if next != tc.hi {
			t.Fatalf("SplitRanges(%d,%d,%d) ends at %d, want %d", tc.lo, tc.hi, tc.n, next, tc.hi)
		}
	}
	if SplitRanges(5, 5, 3) != nil || SplitRanges(0, 10, 0) != nil {
		t.Fatal("degenerate splits should be nil")
	}
}

// TestFrameRoundTrip: a frame survives the wire and every corruption
// (flipped byte, truncation, oversize declaration) fails closed.
func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("imcs shard payload \x00\x01\x02")
	var buf bytes.Buffer
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	if got, err := ReadFrame(bytes.NewReader(wire), 1<<20); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: %q, %v", got, err)
	}

	flipped := append([]byte(nil), wire...)
	flipped[10] ^= 0xff
	if _, err := ReadFrame(bytes.NewReader(flipped), 1<<20); err == nil {
		t.Fatal("flipped byte passed the crc")
	}
	if _, err := ReadFrame(bytes.NewReader(wire[:len(wire)-3]), 1<<20); err == nil {
		t.Fatal("truncated frame accepted")
	}
	if _, err := ReadFrame(bytes.NewReader(wire), 4); err == nil {
		t.Fatal("oversize declaration accepted")
	}
	var empty bytes.Buffer
	if err := WriteFrame(&empty, nil); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadFrame(bytes.NewReader(empty.Bytes()), 0); err != nil || len(got) != 0 {
		t.Fatalf("empty frame: %q, %v", got, err)
	}
}

// TestInstanceSpecModel: the model names resolve and typos are refused.
func TestInstanceSpecModel(t *testing.T) {
	for _, name := range []string{"", "IC", "ic", "LT"} {
		if _, err := (InstanceSpec{Model: name}).model(); err != nil {
			t.Errorf("model %q refused: %v", name, err)
		}
	}
	if _, err := (InstanceSpec{Model: "bogus"}).model(); err == nil {
		t.Error("bogus model accepted")
	}
}
