package fmm

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointsGenerators(t *testing.T) {
	for name, p := range map[string]*Points{
		"uniform":   UniformPoints(500, 1),
		"clustered": ClusteredPoints(500, 4, 1),
	} {
		if p.Len() != 500 {
			t.Errorf("%s: len = %d", name, p.Len())
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		for i := 0; i < p.Len(); i++ {
			if p.D[i] <= 0 {
				t.Errorf("%s: non-positive density at %d", name, i)
				break
			}
		}
	}
	// Determinism.
	a := UniformPoints(50, 7)
	b := UniformPoints(50, 7)
	for i := range a.X {
		if a.X[i] != b.X[i] {
			t.Fatal("point generation must be deterministic per seed")
		}
	}
}

func TestPointsValidate(t *testing.T) {
	p := NewPoints(2)
	p.X[1] = 1.5
	if err := p.Validate(); err == nil {
		t.Error("out-of-cube point accepted")
	}
	p = NewPoints(2)
	p.Y = p.Y[:1]
	if err := p.Validate(); err == nil {
		t.Error("ragged arrays accepted")
	}
}

func TestBuildErrors(t *testing.T) {
	p := UniformPoints(10, 1)
	if _, err := Build(p, 0, 8); err == nil {
		t.Error("maxLeafPts 0 accepted")
	}
	if _, err := Build(p, 4, -1); err == nil {
		t.Error("negative depth accepted")
	}
	if _, err := Build(p, 4, 22); err == nil {
		t.Error("huge depth accepted")
	}
	if _, err := Build(NewPoints(0), 4, 8); err == nil {
		t.Error("empty points accepted")
	}
	bad := NewPoints(1)
	bad.X[0] = 2
	if _, err := Build(bad, 4, 8); err == nil {
		t.Error("invalid points accepted")
	}
}

func TestTreeInvariants(t *testing.T) {
	for _, n := range []int{1, 7, 64, 500, 2000} {
		p := UniformPoints(n, int64(n))
		tr, err := Build(p, 32, 10)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
		// Every leaf within the split threshold (depth cap not hit at
		// these sizes).
		for _, li := range tr.Leaves {
			if got := tr.Nodes[li].NumPoints(); got > 32 {
				t.Errorf("n=%d: leaf with %d > 32 points", n, got)
			}
		}
	}
}

func TestTreeDepthCap(t *testing.T) {
	// Duplicate-heavy input cannot be split below the threshold; the
	// depth cap must stop recursion.
	p := NewPoints(100)
	for i := range p.X {
		p.X[i], p.Y[i], p.Z[i], p.D[i] = 0.5, 0.5, 0.5, 1
	}
	tr, err := Build(p, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, li := range tr.Leaves {
		if tr.Nodes[li].Depth > 3 {
			t.Error("depth cap violated")
		}
	}
}

func TestClusteredTreeIsAdaptive(t *testing.T) {
	p := ClusteredPoints(3000, 2, 5)
	tr, err := Build(p, 64, 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	minD, maxD := 99, 0
	for _, li := range tr.Leaves {
		d := tr.Nodes[li].Depth
		if d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
	}
	if maxD-minD < 1 {
		t.Errorf("clustered tree should have varying leaf depth (min %d, max %d)", minD, maxD)
	}
}

func TestPropTreePartition(t *testing.T) {
	f := func(seed int64, nRaw uint16, qRaw uint8) bool {
		n := int(nRaw%1000) + 1
		q := int(qRaw%60) + 4
		p := UniformPoints(n, seed)
		tr, err := Build(p, q, 12)
		if err != nil {
			return false
		}
		return tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestULists(t *testing.T) {
	p := UniformPoints(1000, 3)
	tr, err := Build(p, 32, 10)
	if err != nil {
		t.Fatal(err)
	}
	u := tr.BuildULists()
	if len(u) != len(tr.Leaves) {
		t.Fatalf("U-lists = %d, leaves = %d", len(u), len(tr.Leaves))
	}
	leafSet := map[int]bool{}
	for _, li := range tr.Leaves {
		leafSet[li] = true
	}
	for bi, list := range u {
		if len(list) == 0 {
			t.Fatalf("leaf %d has empty U-list", bi)
		}
		self := false
		for _, si := range list {
			if !leafSet[si] {
				t.Fatalf("U-list of %d contains non-leaf node %d", bi, si)
			}
			if si == tr.Leaves[bi] {
				self = true
			}
			// Symmetry of the geometric predicate.
			if !tr.Nodes[tr.Leaves[bi]].touches(&tr.Nodes[si]) {
				t.Fatalf("U-list of %d contains non-touching node %d", bi, si)
			}
		}
		if !self {
			t.Errorf("leaf %d missing from its own U-list", bi)
		}
	}
	// Completeness: every touching leaf pair is in the list.
	for bi, lbi := range tr.Leaves {
		inList := map[int]bool{}
		for _, si := range u[bi] {
			inList[si] = true
		}
		for _, lj := range tr.Leaves {
			if tr.Nodes[lbi].touches(&tr.Nodes[lj]) && !inList[lj] {
				t.Fatalf("leaf %d: touching leaf %d missing from U-list", bi, lj)
			}
		}
	}
}

func TestUListSymmetry(t *testing.T) {
	// If S is in U(B), then B is in U(S): touching is symmetric.
	p := UniformPoints(800, 9)
	tr, err := Build(p, 32, 10)
	if err != nil {
		t.Fatal(err)
	}
	u := tr.BuildULists()
	leafOrder := map[int]int{}
	for bi, li := range tr.Leaves {
		leafOrder[li] = bi
	}
	for bi, list := range u {
		for _, si := range list {
			sj := leafOrder[si]
			found := false
			for _, back := range u[sj] {
				if back == tr.Leaves[bi] {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("U-list not symmetric between leaves %d and %d", bi, sj)
			}
		}
	}
}

func TestPairsCount(t *testing.T) {
	// Small enough for one leaf: pairs = n².
	p := UniformPoints(16, 2)
	tr, err := Build(p, 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	u := tr.BuildULists()
	if got := tr.Pairs(u); got != 256 {
		t.Errorf("single-leaf pairs = %d, want 256", got)
	}
}

func TestTouchesPredicate(t *testing.T) {
	a := Node{MinX: 0, MinY: 0, MinZ: 0, Size: 0.25}
	cases := []struct {
		b    Node
		want bool
	}{
		{Node{MinX: 0.25, MinY: 0, MinZ: 0, Size: 0.25}, true},       // face
		{Node{MinX: 0.25, MinY: 0.25, MinZ: 0.25, Size: 0.25}, true}, // corner
		{Node{MinX: 0.5, MinY: 0, MinZ: 0, Size: 0.25}, false},       // gap
		{Node{MinX: 0, MinY: 0, MinZ: 0, Size: 0.25}, true},          // self
		{Node{MinX: 0.125, MinY: 0.125, MinZ: 0, Size: 0.125}, true}, // overlap
		{Node{MinX: 0.25, MinY: 0.5, MinZ: 0, Size: 0.25}, false},    // diagonal gap
	}
	for i, c := range cases {
		if got := a.touches(&c.b); got != c.want {
			t.Errorf("case %d: touches = %v, want %v", i, got, c.want)
		}
	}
}

func TestInteriorLeafHas27Neighbours(t *testing.T) {
	// A complete uniform grid: an interior leaf touches exactly 27
	// leaves (itself + 26 neighbours).
	p := NewPoints(512)
	i := 0
	for x := 0; x < 8; x++ {
		for y := 0; y < 8; y++ {
			for z := 0; z < 8; z++ {
				p.X[i] = (float64(x) + 0.5) / 8
				p.Y[i] = (float64(y) + 0.5) / 8
				p.Z[i] = (float64(z) + 0.5) / 8
				p.D[i] = 1
				i++
			}
		}
	}
	tr, err := Build(p, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	u := tr.BuildULists()
	if len(tr.Leaves) != 512 {
		t.Fatalf("expected 512 leaves, got %d", len(tr.Leaves))
	}
	// Find an interior leaf (box not on the boundary).
	counts := map[int]int{}
	for bi, li := range tr.Leaves {
		n := &tr.Nodes[li]
		interior := n.MinX > 0.01 && n.MinX+n.Size < 0.99 &&
			n.MinY > 0.01 && n.MinY+n.Size < 0.99 &&
			n.MinZ > 0.01 && n.MinZ+n.Size < 0.99
		if interior {
			counts[len(u[bi])]++
		}
	}
	if len(counts) != 1 {
		t.Fatalf("interior U-list sizes vary: %v", counts)
	}
	for size := range counts {
		if size != 27 {
			t.Errorf("interior U-list size = %d, want 27", size)
		}
	}
	if math.Abs(float64(tr.Pairs(u))-float64(512*27)) > 1e-9 {
		// Not exactly n*27 because boundary leaves have fewer
		// neighbours; just sanity-check the magnitude.
		if tr.Pairs(u) >= 512*27 || tr.Pairs(u) <= 512*8 {
			t.Errorf("pairs = %d out of plausible range", tr.Pairs(u))
		}
	}
}
