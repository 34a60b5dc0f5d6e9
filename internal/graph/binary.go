package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary graph format: a compact serialization for large generated
// analogs (the text edge list for the pokec analog is ~100 MB; the
// binary form is about a third of that and parses an order of
// magnitude faster).
//
// Layout (little endian):
//
//	magic   [4]byte  "IMCG"
//	version uint32   (1)
//	n       uint64   node count
//	m       uint64   edge count
//	outOff  [n+1]uint32
//	outTo   [m]uint32 (delta-varint would shave more; kept fixed-width
//	                   for O(1) random access when mmapped)
//	outW    [m]float64
//
// The reverse CSR is rebuilt on load — it is fully determined by the
// forward CSR plus the edge-ID convention.

var binaryMagic = [4]byte{'I', 'M', 'C', 'G'}

const binaryVersion = 1

// WriteBinary serializes g in the binary graph format.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return fmt.Errorf("graph: write magic: %w", err)
	}
	var scratch [8]byte
	put32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		_, err := bw.Write(scratch[:4])
		return err
	}
	put64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(scratch[:], v)
		_, err := bw.Write(scratch[:])
		return err
	}
	if err := put32(binaryVersion); err != nil {
		return fmt.Errorf("graph: write version: %w", err)
	}
	if err := put64(uint64(g.n)); err != nil {
		return fmt.Errorf("graph: write n: %w", err)
	}
	if err := put64(uint64(g.NumEdges())); err != nil {
		return fmt.Errorf("graph: write m: %w", err)
	}
	for _, off := range g.outOff {
		if err := put32(uint32(off)); err != nil {
			return fmt.Errorf("graph: write offsets: %w", err)
		}
	}
	for _, to := range g.outTo {
		if err := put32(uint32(to)); err != nil {
			return fmt.Errorf("graph: write targets: %w", err)
		}
	}
	for _, wt := range g.outW {
		if err := put64(math.Float64bits(wt)); err != nil {
			return fmt.Errorf("graph: write weights: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("graph: flush binary graph: %w", err)
	}
	return nil
}

// ReadBinary deserializes a graph written by WriteBinary, validating
// structural invariants before accepting it.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("graph: read magic: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %q", magic)
	}
	var scratch [8]byte
	get32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, scratch[:4]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(scratch[:4]), nil
	}
	get64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, scratch[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(scratch[:]), nil
	}
	version, err := get32()
	if err != nil {
		return nil, fmt.Errorf("graph: read version: %w", err)
	}
	if version != binaryVersion {
		return nil, fmt.Errorf("graph: unsupported version %d", version)
	}
	n64, err := get64()
	if err != nil {
		return nil, fmt.Errorf("graph: read n: %w", err)
	}
	m64, err := get64()
	if err != nil {
		return nil, fmt.Errorf("graph: read m: %w", err)
	}
	// Caps bound the allocation a hostile header can trigger; 1<<27
	// nodes / edges (≈134M) is far beyond any analog this library
	// generates while keeping the worst-case allocation ≈4 GB.
	if n64 == 0 || n64 > 1<<27 {
		return nil, fmt.Errorf("graph: node count %d out of range", n64)
	}
	if m64 > 1<<27 {
		return nil, fmt.Errorf("graph: edge count %d out of range", m64)
	}
	n, m := int(n64), int(m64)

	g := &Graph{
		n:      n,
		outOff: make([]int32, n+1),
		outTo:  make([]NodeID, m),
		outW:   make([]float64, m),
		outEID: make([]EdgeID, m),
		inOff:  make([]int32, n+1),
		inFrom: make([]NodeID, m),
		inW:    make([]float64, m),
		inEID:  make([]EdgeID, m),
	}
	for i := 0; i <= n; i++ {
		v, err := get32()
		if err != nil {
			return nil, fmt.Errorf("graph: read offsets: %w", err)
		}
		g.outOff[i] = int32(v)
	}
	if g.outOff[0] != 0 || int(g.outOff[n]) != m {
		return nil, fmt.Errorf("graph: offset envelope [%d, %d] does not match m=%d", g.outOff[0], g.outOff[n], m)
	}
	for i := 1; i <= n; i++ {
		if g.outOff[i] < g.outOff[i-1] {
			return nil, fmt.Errorf("graph: offsets not monotone at %d", i)
		}
	}
	for i := 0; i < m; i++ {
		v, err := get32()
		if err != nil {
			return nil, fmt.Errorf("graph: read targets: %w", err)
		}
		if v >= uint32(n) {
			return nil, fmt.Errorf("graph: edge target %d out of range", v)
		}
		g.outTo[i] = NodeID(v)
		g.outEID[i] = EdgeID(i)
	}
	for i := 0; i < m; i++ {
		v, err := get64()
		if err != nil {
			return nil, fmt.Errorf("graph: read weights: %w", err)
		}
		w := math.Float64frombits(v)
		if math.IsNaN(w) || w < 0 || w > 1 {
			return nil, fmt.Errorf("graph: edge weight %g out of [0, 1]", w)
		}
		g.outW[i] = w
	}
	// Rebuild the reverse CSR.
	for _, to := range g.outTo {
		g.inOff[to+1]++
	}
	for i := 0; i < n; i++ {
		g.inOff[i+1] += g.inOff[i]
	}
	cursor := make([]int32, n)
	copy(cursor, g.inOff[:n])
	for u := 0; u < n; u++ {
		for idx := g.outOff[u]; idx < g.outOff[u+1]; idx++ {
			to := g.outTo[idx]
			pos := cursor[to]
			cursor[to]++
			g.inFrom[pos] = NodeID(u)
			g.inW[pos] = g.outW[idx]
			g.inEID[pos] = g.outEID[idx]
		}
	}
	g.derive()
	return g, nil
}
