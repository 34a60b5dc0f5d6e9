package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ReadEdgeList parses a whitespace-separated edge list with lines of the
// form "u v" or "u v w". Lines starting with '#' or '%' are comments.
// Node IDs must be non-negative integers; n is inferred as max ID + 1.
// When directed is false each line adds both directions. Edges without an
// explicit weight get weight 1 (reassign with ApplyWeights). Weights are
// clamped to [0, 1] as Builder.AddEdge does; NaN is an error.
func ReadEdgeList(r io.Reader, directed bool) (*Graph, error) {
	type rawEdge struct {
		u, v int64
		w    float64
	}
	var (
		raws    []rawEdge
		maxNode int64 = -1
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want at least 2 fields, got %d", lineNo, len(fields))
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source %q: %w", lineNo, fields[0], err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad target %q: %w", lineNo, fields[1], err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graph: line %d: negative node id", lineNo)
		}
		w := 1.0
		if len(fields) >= 3 {
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight %q: %w", lineNo, fields[2], err)
			}
			if math.IsNaN(w) {
				return nil, fmt.Errorf("graph: line %d: bad weight %q: not a number", lineNo, fields[2])
			}
		}
		if u > maxNode {
			maxNode = u
		}
		if v > maxNode {
			maxNode = v
		}
		raws = append(raws, rawEdge{u: u, v: v, w: w})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: scan edge list: %w", err)
	}
	if maxNode < 0 {
		return nil, ErrNoNodes
	}
	b := NewBuilder(int(maxNode + 1))
	for _, e := range raws {
		if directed {
			b.AddEdge(NodeID(e.u), NodeID(e.v), e.w)
		} else {
			b.AddUndirected(NodeID(e.u), NodeID(e.v), e.w)
		}
	}
	return b.Build()
}

// WriteEdgeList emits the graph as "u v w" lines in edge-ID order.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	for u := NodeID(0); int(u) < g.NumNodes(); u++ {
		tos, ws := g.OutNeighbors(u)
		for i, v := range tos {
			if _, err := fmt.Fprintf(bw, "%d %d %g\n", u, v, ws[i]); err != nil {
				return fmt.Errorf("graph: write edge list: %w", err)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("graph: flush edge list: %w", err)
	}
	return nil
}
