package ric

import "math/bits"

// Mask is a word-packed bitset over the members of one sample's source
// community: member j corresponds to bit j. A Mask is a view of a word
// run inside flat pool storage (a node's index run, a decoded sample's
// slab, a State's arena), never a separately allocated slice.
type Mask []uint64

const maskWordBits = 64

// maskWords returns the natural mask width of an n-member community:
// ⌈n/64⌉ words.
//
//imc:pure
func maskWords(n int) int {
	return (n + maskWordBits - 1) / maskWordBits
}

// set turns on bit i.
func (m Mask) set(i int) { m[i/maskWordBits] |= 1 << uint(i%maskWordBits) }

// Test reports whether bit i is on.
//
//imc:pure
func (m Mask) Test(i int) bool {
	return m[i/maskWordBits]&(1<<uint(i%maskWordBits)) != 0
}

// OnesCount returns the number of set bits.
//
//imc:pure
func (m Mask) OnesCount() int {
	c := 0
	for _, w := range m {
		c += bits.OnesCount64(w)
	}
	return c
}

// OrInto sets dst |= m and reports whether dst gained a bit. dst must
// be at least as long as m.
func (m Mask) OrInto(dst Mask) bool {
	dst = dst[:len(m)]
	var gained uint64
	for i, w := range m {
		gained |= w &^ dst[i]
		dst[i] |= w
	}
	return gained != 0
}

// NewBitsOver returns the number of bits set in m but not in base — the
// marginal member coverage m adds on top of base. base must be at least
// as long as m.
//
//imc:pure
func (m Mask) NewBitsOver(base Mask) int {
	base = base[:len(m)]
	c := 0
	for i, w := range m {
		c += bits.OnesCount64(w &^ base[i])
	}
	return c
}
