package lint

import (
	"fmt"
)

// The lockheld analyzer flags operations that can block indefinitely
// while a mutex is held: direct channel sends/receives outside a
// select-with-default, selects without a default clause, and calls —
// external (file Sync/Write, network IO, time.Sleep, WaitGroup.Wait;
// see the blocking-op table in summary.go) or in-program (any callee
// whose summary carries EffBlock) — made inside a critical section.
// A blocked holder stalls every other goroutine contending for the
// lock; the canonical repo case was the job journal's fsync inside
// Store.mu, which serialized all job-state reads behind disk latency.
//
// The walk is a must-held dataflow (locks.go): intersection meet, so
// conditionally-held locks don't flag, and go/defer/closure subtrees
// excluded. Acquiring a NESTED lock is deliberately not a lockheld
// finding — reporting every nested critical section would bury the
// real stalls. Dynamic calls are also quiet
// (EffDynamic, not EffBlock): a documented gap that keeps clock-func
// fields and injected builders from flagging every caller.

// LockHeld is the blocking-under-mutex analyzer.
var LockHeld = &Analyzer{
	Name: "lockheld",
	Doc:  "flag operations that may block indefinitely while a mutex is held",
	Kind: KindInterprocedural,
	Run:  runLockHeld,
}

func runLockHeld(pkg *Package, r *Reporter) {
	prog := pkg.Prog
	if prog == nil || prog.Graph == nil {
		return
	}
	for _, node := range prog.Graph.Nodes {
		if node.Pkg != pkg {
			continue
		}
		w := newHeldWalker(node)
		if w == nil {
			continue
		}
		w.walk(func(held heldSet, op lockOp) {
			if len(held) == 0 {
				return
			}
			ids := sortedLockIDs(held)
			hid := ids[0]
			acq := shortPos(pkg.Fset.Position(held[hid]))
			switch op.kind {
			case opBlock:
				r.Reportf("lockheld", op.pos,
					"blocks on %s while holding %s (locked at %s); release the lock before blocking",
					op.desc, hid, acq)
			case opCall:
				e := op.edge
				if e.Callee != nil {
					if e.Callee.Summary == nil || e.Callee.Summary.Effects&EffBlock == 0 {
						return
					}
					names, local := chainThrough(e.Callee, EffBlock, "")
					if local == nil {
						return
					}
					chain := append([]string{e.Callee.Name()}, names...)
					r.Reportf("lockheld", op.pos,
						"call to %s may block while holding %s (locked at %s): %s %s at %s",
						e.Callee.Name(), hid, acq,
						formatChain(chain), local.Desc, shortPos(e.Callee.Pkg.Fset.Position(local.Pos)))
					return
				}
				if !externalBlocks(e.ExtPkg, e.ExtRecv, e.ExtName) {
					return
				}
				name := e.ExtPkg + "." + e.ExtName
				if e.ExtRecv != "" {
					name = fmt.Sprintf("%s.(%s).%s", e.ExtPkg, e.ExtRecv, e.ExtName)
				}
				r.Reportf("lockheld", op.pos,
					"call to %s may block while holding %s (locked at %s); release the lock before blocking",
					name, hid, acq)
			}
		})
	}
}
