package topology

// FamilyInfo describes one interconnection-network family: its spec
// grammar, parameter constraints and the formulas the literature
// provides. Catalog is consumed by the command-line tools' help output
// and by sweep-style tests.
type FamilyInfo struct {
	// Spec is the Parse prefix, e.g. "q" or "nkstar".
	Spec string
	// Name is the family's display name.
	Name string
	// Params documents the constructor arguments.
	Params string
	// DegreeFormula, KappaFormula, DeltaFormula are human-readable.
	DegreeFormula, KappaFormula, DeltaFormula string
	// Conditions states when the δ formula is certified.
	Conditions string
	// Reference is the paper's citation index for the family.
	Reference string
	// Example is a valid spec for a moderate instance.
	Example string
}

// Catalog lists every family of the paper's Section 5.
func Catalog() []FamilyInfo {
	return []FamilyInfo{
		{"q", "hypercube Q_n", "n ≥ 2", "n", "n", "n", "n ≥ 5 [23]; δ(Q4)=4, δ(Q3)=2, δ(Q2)=0 by exact computation", "[23]", "q:10"},
		{"cq", "crossed cube CQ_n", "n ≥ 2", "n", "n", "n", "n ≥ 4; δ(CQ3)=2, δ(CQ2)=0 by exact computation", "[12,14,16]", "cq:9"},
		{"tq", "twisted cube TQ_n", "odd n ≥ 3", "n", "n", "n", "n ≥ 5 (odd); δ(TQ3)=2 by exact computation", "[15,7]", "tq:9"},
		{"fq", "folded hypercube FQ_n", "n ≥ 2", "n+1", "n+1", "n+1", "n ≥ 4; δ(FQ3)=2, δ(FQ2)=1 by exact computation", "[3]", "fq:9"},
		{"eq", "enhanced hypercube Q_{n,f}", "n ≥ 2, 2 ≤ f ≤ n", "n+1", "n+1", "n+1", "n ≥ 4; δ(Q_{3,2})=3, δ(Q_{3,3})=2, δ(Q_{2,2})=1 by exact computation", "[22]", "eq:9,4"},
		{"aq", "augmented cube AQ_n", "n ≥ 2", "2n-1", "2n-1 (4 for n=3)", "2n-1", "n ≥ 4 (n = 4 by exact computation); δ(AQ3)=3, δ(AQ2)=1 by exact computation; partitions need n ≥ 8 (gap G3)", "[10]", "aq:9"},
		{"sq", "shuffle cube SQ_n", "n ≡ 2 (mod 4)", "n", "n", "n", "n ≥ 4; δ(SQ2)=0 by exact computation", "[17]", "sq:10"},
		{"tnq", "twisted N-cube TQ'_n", "n ≥ 2", "n", "n", "n", "n ≥ 4; δ(TQ'3)=2, δ(TQ'2)=0 by exact computation", "[13]", "tnq:9"},
		{"kary", "k-ary n-cube Q^k_n", "k ≥ 3, n ≥ 1", "2n", "2n", "2n", "excl. the small pairs of [6]; δ(Q^k_1)=0 for k ≤ 4 and 1 for 5 ≤ k ≤ 8 by exact computation", "[5]", "kary:4,4"},
		{"akary", "augmented k-ary n-cube AQ_{n,k}", "k ≥ 3, n ≥ 2", "4n-2", "4n-2", "4n-2", "(n,k) ≠ (2,3), where δ=4 by exact computation; partitions need k^n ≥ (4n-1)²", "[25]", "akary:7,2"},
		{"star", "star graph S_n", "3 ≤ n ≤ 12", "n-1", "n-1", "n-1", "n ≥ 4; δ(S_3)=1 by exact computation", "[1,28]", "star:7"},
		{"nkstar", "(n,k)-star S_{n,k}", "2 ≤ k ≤ n-1, n ≤ 12", "n-1", "n-1", "n-1", "(n,k) ≠ (3,2), where δ=1 by exact computation; k = 2 hits gap G3", "[9]", "nkstar:7,3"},
		{"pancake", "pancake graph P_n", "3 ≤ n ≤ 12", "n-1", "n-1", "n-1", "n ≥ 4; δ(P_3)=1 by exact computation", "[2]", "pancake:7"},
		{"arr", "arrangement graph A_{n,k}", "1 ≤ k ≤ n-1, n ≤ 12", "k(n-k)", "k(n-k)", "k(n-k)", "k ≥ 2 (k = 2 hits gap G3; δ(A_{3,2})=1 by exact computation); A_{n,1} = K_n has δ = ⌊(n-1)/2⌋, 0 for n = 3, by exact computation", "[11]", "arr:7,4"},
	}
}
