package primitives

import (
	"fmt"
	"testing"
	"testing/quick"

	"graphrealize/internal/ncc"
	"graphrealize/internal/ncctest"
)

// runAll executes BuildAll on every node and returns per-ID tree views plus
// the trace.
func runAll(t *testing.T, n int, seed int64, model ncc.Model) (map[ncc.ID]Tree, *ncc.Trace) {
	t.Helper()
	s := ncc.New(ncc.Config{N: n, Seed: seed, Model: model, Strict: true})
	views := make(map[ncc.ID]Tree, n)
	type res struct {
		id ncc.ID
		tr Tree
	}
	ch := make(chan res, n)
	trace, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
		return BuildAll(nd, func(_ Path, _ Levels, tree Tree) ncc.Op {
			ch <- res{nd.ID(), tree}
			return ncc.Done()
		})
	})
	if err != nil {
		t.Fatalf("n=%d: run: %v", n, err)
	}
	close(ch)
	for r := range ch {
		views[r.id] = r.tr
	}
	return views, trace
}

// validateTree checks the Theorem 1 properties of a TBFS over the Gk order.
func validateTree(t *testing.T, views map[ncc.ID]Tree, ids []ncc.ID) {
	t.Helper()
	n := len(ids)
	K := ncc.CeilLog2(n)
	roots := 0
	for id, v := range views {
		if v.IsRoot {
			roots++
			if id != ids[0] {
				t.Fatalf("root is %d, want the path head %d", id, ids[0])
			}
			if v.Parent != ncc.None {
				t.Fatal("root has a parent")
			}
		} else if v.Parent == ncc.None {
			t.Fatalf("non-root %d without parent (not spanned)", id)
		}
		if v.Depth > K+1 {
			t.Fatalf("node %d depth %d exceeds ⌈log n⌉+1 = %d", id, v.Depth, K+1)
		}
	}
	if roots != 1 {
		t.Fatalf("found %d roots, want 1", roots)
	}
	// Parent/child mutual consistency.
	for id, v := range views {
		if v.Left != ncc.None {
			if c, ok := views[v.Left]; !ok || c.Parent != id {
				t.Fatalf("left child %d of %d does not point back", v.Left, id)
			}
			if views[v.Left].Depth != v.Depth+1 {
				t.Fatalf("depth mismatch at edge %d→%d", id, v.Left)
			}
		}
		if v.Right != ncc.None {
			if c, ok := views[v.Right]; !ok || c.Parent != id {
				t.Fatalf("right child %d of %d does not point back", v.Right, id)
			}
		}
	}
	// Inorder positions are exactly the Gk positions (the search property).
	for i, id := range ids {
		if views[id].Pos != i {
			t.Fatalf("node %d at path position %d has inorder pos %d", id, i, views[id].Pos)
		}
	}
	// Root size is n.
	for _, v := range views {
		if v.IsRoot && v.Size != n {
			t.Fatalf("root subtree size %d, want %d", v.Size, n)
		}
	}
}

func TestTBFSSmallSizes(t *testing.T) {
	for n := 1; n <= 33; n++ {
		views, trace := runAll(t, n, int64(n)*7+1, ncc.NCC0)
		validateTree(t, views, trace.IDs)
	}
}

func TestTBFSLarger(t *testing.T) {
	for _, n := range []int{64, 100, 257, 512, 1000} {
		views, trace := runAll(t, n, int64(n), ncc.NCC0)
		validateTree(t, views, trace.IDs)
		K := ncc.CeilLog2(n)
		maxRounds := 8*K + 20 // BuildAll is O(log n) with small constants
		if trace.Metrics.Rounds > maxRounds {
			t.Fatalf("n=%d: BuildAll took %d rounds, budget %d", n, trace.Metrics.Rounds, maxRounds)
		}
	}
}

func TestTBFSNCC1(t *testing.T) {
	views, trace := runAll(t, 200, 5, ncc.NCC1)
	validateTree(t, views, trace.IDs)
}

// TestFigure2Golden reproduces Figure 2 of the paper exactly: on the ordered
// path 1..8, the BBST is rooted at 1 with right child 5; 5 has children 3
// and 7; 3 has 2 and 4; 7 has 6 and 8.
func TestFigure2Golden(t *testing.T) {
	s := ncc.New(ncc.Config{N: 8, Seed: 1, Model: ncc.NCC1, OrderedIDs: true, Strict: true})
	views := make([]Tree, 9)
	results := make(chan struct {
		id ncc.ID
		tr Tree
	}, 8)
	_, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
		return BuildAll(nd, func(_ Path, _ Levels, tree Tree) ncc.Op {
			results <- struct {
				id ncc.ID
				tr Tree
			}{nd.ID(), tree}
			return ncc.Done()
		})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	close(results)
	for r := range results {
		views[r.id] = r.tr
	}
	type want struct {
		parent, left, right ncc.ID
	}
	wants := map[ncc.ID]want{
		1: {0, 0, 5},
		5: {1, 3, 7},
		3: {5, 2, 4},
		7: {5, 6, 8},
		2: {3, 0, 0},
		4: {3, 0, 0},
		6: {7, 0, 0},
		8: {7, 0, 0},
	}
	for id, w := range wants {
		v := views[id]
		if v.Parent != w.parent || v.Left != w.left || v.Right != w.right {
			t.Fatalf("node %d: parent/left/right = %d/%d/%d, want %d/%d/%d",
				id, v.Parent, v.Left, v.Right, w.parent, w.left, w.right)
		}
	}
}

func TestQuickTBFS(t *testing.T) {
	f := func(nRaw uint16, seed int64) bool {
		n := int(nRaw%300) + 1
		s := ncc.New(ncc.Config{N: n, Seed: seed, Strict: true})
		type res struct {
			id ncc.ID
			tr Tree
		}
		ch := make(chan res, n)
		trace, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
			return BuildAll(nd, func(_ Path, _ Levels, tree Tree) ncc.Op {
				ch <- res{nd.ID(), tree}
				return ncc.Done()
			})
		})
		if err != nil {
			return false
		}
		close(ch)
		views := make(map[ncc.ID]Tree, n)
		for r := range ch {
			views[r.id] = r.tr
		}
		for i, id := range trace.IDs {
			if views[id].Pos != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildPathRounds(t *testing.T) {
	s := ncc.New(ncc.Config{N: 50, Seed: 2, Strict: true})
	trace, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
		return BuildPath(nd, func(p Path) ncc.Op {
			if nd.InitialSucc() == ncc.None && !p.IsTail() {
				panic("tail misdetected")
			}
			return ncc.Done()
		})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if trace.Metrics.Rounds != 1 {
		t.Fatalf("BuildPath rounds = %d, want 1", trace.Metrics.Rounds)
	}
}

func TestLevelsAreDoublingLinks(t *testing.T) {
	n := 37
	s := ncc.New(ncc.Config{N: n, Seed: 3, Strict: true})
	type res struct {
		id ncc.ID
		lv Levels
	}
	ch := make(chan res, n)
	trace, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
		return BuildPath(nd, func(p Path) ncc.Op {
			return BuildLevels(nd, p, func(lv Levels) ncc.Op {
				ch <- res{nd.ID(), lv}
				return ncc.Done()
			})
		})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	close(ch)
	pos := make(map[ncc.ID]int, n)
	for i, id := range trace.IDs {
		pos[id] = i
	}
	for r := range ch {
		p := pos[r.id]
		for j := 0; j <= r.lv.Top(); j++ {
			d := 1 << j
			wantPred, wantSucc := ncc.None, ncc.None
			if p-d >= 0 {
				wantPred = trace.IDs[p-d]
			}
			if p+d < n {
				wantSucc = trace.IDs[p+d]
			}
			if r.lv.Pred[j] != wantPred || r.lv.Succ[j] != wantSucc {
				t.Fatalf("node %d (pos %d) level %d: links %d/%d, want %d/%d",
					r.id, p, j, r.lv.Pred[j], r.lv.Succ[j], wantPred, wantSucc)
			}
		}
	}
}

// warmupDigests records the warm-up tree run's trace digest per n.
var warmupDigests = map[string]string{
	"n=1":   "2cd32ccebd389a47",
	"n=2":   "197f84d18c2e0c37",
	"n=3":   "91b41e524b66a810",
	"n=4":   "83ef822cd9b9aa81",
	"n=5":   "fef071354d3c5304",
	"n=8":   "6f27854ca6ec40d8",
	"n=16":  "aed9a717e7566dab",
	"n=17":  "b2dfe86693b14c2f",
	"n=33":  "ab7412d7de4665ce",
	"n=100": "8b5cfa46da7a637d",
}

func TestWarmupTreeProperties(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 16, 17, 33, 100} {
		s := ncc.New(ncc.Config{N: n, Seed: int64(n) + 11, Strict: true})
		type res struct {
			id ncc.ID
			wt WarmTree
		}
		ch := make(chan res, n)
		trace, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
			return BuildPath(nd, func(p Path) ncc.Op {
				return BuildWarmupTree(nd, p, func(wt WarmTree) ncc.Op {
					nd.SetOutput("parent", int64(wt.Parent))
					nd.SetOutput("left", int64(wt.Left))
					nd.SetOutput("right", int64(wt.Right))
					nd.SetOutput("depth", int64(wt.Depth))
					ch <- res{nd.ID(), wt}
					return ncc.Done()
				})
			})
		})
		if err != nil {
			t.Fatalf("n=%d: run: %v", n, err)
		}
		label := fmt.Sprintf("n=%d", n)
		ncctest.Expect(t, label, trace, err, warmupDigests[label])
		close(ch)
		views := make(map[ncc.ID]WarmTree, n)
		for r := range ch {
			views[r.id] = r.wt
		}
		K := ncc.CeilLog2(n)
		roots := 0
		for id, v := range views {
			if v.IsRoot {
				roots++
				if id != trace.IDs[0] {
					t.Fatalf("n=%d: warm root %d is not the head %d", n, id, trace.IDs[0])
				}
			} else if v.Parent == ncc.None {
				t.Fatalf("n=%d: node %d unplaced", n, id)
			}
			if v.Depth > K+1 {
				t.Fatalf("n=%d: node %d depth %d > %d", n, id, v.Depth, K+1)
			}
			if v.Left != ncc.None {
				if views[v.Left].Parent != id {
					t.Fatalf("n=%d: left child %d of %d does not point back", n, v.Left, id)
				}
			}
			if v.Right != ncc.None {
				if views[v.Right].Parent != id {
					t.Fatalf("n=%d: right child %d of %d does not point back", n, v.Right, id)
				}
			}
		}
		if roots != 1 {
			t.Fatalf("n=%d: %d roots", n, roots)
		}
		// Spanning: walk from the root.
		seen := map[ncc.ID]bool{}
		stack := []ncc.ID{trace.IDs[0]}
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[id] {
				t.Fatalf("n=%d: cycle at %d", n, id)
			}
			seen[id] = true
			v := views[id]
			if v.Left != ncc.None {
				stack = append(stack, v.Left)
			}
			if v.Right != ncc.None {
				stack = append(stack, v.Right)
			}
		}
		if len(seen) != n {
			t.Fatalf("n=%d: warm tree spans %d of %d nodes", n, len(seen), n)
		}
	}
}

func TestSyncAtIsBarrier(t *testing.T) {
	s := ncc.New(ncc.Config{N: 4, Seed: 17, Strict: true})
	_, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
		// Desynchronize wildly, then re-align.
		var idle func(i int) ncc.Op
		idle = func(i int) ncc.Op {
			if i < int(nd.ID()%7) {
				return ncc.Next(ncc.ContFunc(func(*ncc.Node, ncc.Wake) ncc.Op { return idle(i + 1) }))
			}
			return SyncAt(nd, 10, ncc.ContFunc(func(*ncc.Node, ncc.Wake) ncc.Op {
				if nd.Round() != 10 {
					panic("SyncAt did not land on the target round")
				}
				return ncc.Done()
			}))
		}
		return idle(0)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestAnnotateLeftSizes(t *testing.T) {
	// LeftSize must equal the node's inorder position minus its subtree's
	// interval start — verified indirectly: pos = lo + leftSize means for
	// the root leftSize == pos.
	n := 100
	s := ncc.New(ncc.Config{N: n, Seed: 91, Strict: true})
	type res struct {
		id ncc.ID
		tr Tree
	}
	ch := make(chan res, n)
	trace, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
		return BuildAll(nd, func(_ Path, _ Levels, tree Tree) ncc.Op {
			ch <- res{nd.ID(), tree}
			return ncc.Done()
		})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	close(ch)
	views := map[ncc.ID]Tree{}
	for r := range ch {
		views[r.id] = r.tr
	}
	var sizeOf func(id ncc.ID) int
	sizeOf = func(id ncc.ID) int {
		if id == ncc.None {
			return 0
		}
		v := views[id]
		return 1 + sizeOf(v.Left) + sizeOf(v.Right)
	}
	for id, v := range views {
		if got := sizeOf(id); got != v.Size {
			t.Fatalf("node %d: size %d, recomputed %d", id, v.Size, got)
		}
		if got := sizeOf(v.Left); got != v.LeftSize {
			t.Fatalf("node %d: leftSize %d, recomputed %d", id, v.LeftSize, got)
		}
	}
	_ = trace
}

func TestBuildPathHeadAndTail(t *testing.T) {
	s := ncc.New(ncc.Config{N: 5, Seed: 93, Strict: true})
	tr, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
		return BuildPath(nd, func(p Path) ncc.Op {
			if p.IsHead() {
				nd.SetOutput("head", 1)
			}
			if p.IsTail() {
				nd.SetOutput("tail", 1)
			}
			return ncc.Done()
		})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, ok := tr.Output(tr.IDs[0], "head"); !ok {
		t.Fatal("head not detected")
	}
	if _, ok := tr.Output(tr.IDs[4], "tail"); !ok {
		t.Fatal("tail not detected")
	}
	for i := 1; i < 4; i++ {
		if _, ok := tr.Output(tr.IDs[i], "head"); ok {
			t.Fatalf("interior node %d claims head", i)
		}
	}
}
