package experiments

import (
	"fmt"
	"sync"

	"github.com/graphstream/gsketch/internal/graphgen"
	"github.com/graphstream/gsketch/internal/stream"
)

// Profile scales the reproduction. Paper-scale streams (10^9 edges) need
// hours; Repro preserves every N/w ratio of the paper at roughly 1/4 to
// 1/250 linear scale so the plots keep their shapes; Small is for tests.
type Profile struct {
	Name string

	// DBLP-like co-authorship stream.
	DBLPAuthors int
	DBLPPairs   int // approximate ordered-pair target
	DBLPGrid    []int
	DBLPFixed   int

	// IP-attack stream.
	IPAttackers int
	IPTargets   int
	IPPackets   int
	IPGrid      []int
	IPFixed     int

	// R-MAT (GTGraph) stream.
	RMATScale int
	RMATEdges int
	RMATGrid  []int
	RMATFixed int

	// Rotation-policy stream (the adapt figure): a Zipf carousel of
	// CarouselSources sources over CarouselDests destinations, six phases
	// of CarouselPhase edges each, and the budgets it is read at; the first
	// is reported but not decided on.
	CarouselSources int
	CarouselDests   int
	CarouselPhase   int
	CarouselGrid    []int

	// SampleFraction is the reservoir data-sample size as a fraction of
	// the stream (DBLP and RMAT; the IP dataset samples its first day,
	// like the paper). DBLPSampleFraction overrides it for DBLP when
	// nonzero: scaled-down streams compress per-author activity, so the
	// per-vertex sampling rate must rise to preserve the paper's
	// heavy-band degree saturation (see EXPERIMENTS.md).
	SampleFraction     float64
	DBLPSampleFraction float64
	// WorkloadFraction sizes the §6.4 workload sample relative to the
	// stream.
	WorkloadFraction float64
	// QuerySize is |Qe| and |Qg| (paper: 10,000).
	QuerySize int
	// SubgraphEdges is the number of edges per subgraph query (paper: 10).
	SubgraphEdges int
	// Seed drives every generator and sampler in the profile.
	Seed uint64
}

// Repro is the default profile: a downscale of the paper's setup chosen so
// the collision regimes (stream volume and distinct-edge counts relative
// to sketch width) match the paper's across each memory grid, which is
// what preserves every plot's shape (the field comments give the paper's
// figure beside each of ours).
var Repro = Profile{
	Name: "repro",

	// Paper: 595,406 authors, 1,954,776 pairs, 100K-edge sample (5%);
	// 512K–8M bytes. Ours: ~950K pairs with a 10% sample (≈ the paper's
	// absolute sample size), grid positioned at the same N/width ratios.
	DBLPAuthors: 30_000,
	DBLPPairs:   1_050_000,
	DBLPGrid:    []int{32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10},
	DBLPFixed:   64 << 10,

	// Paper: 3,781,471 packets over 5 days, first day as sample;
	// 512K–8M. Ours: 1.2M packets, first day ≈ 20%.
	IPAttackers: 6_000,
	IPTargets:   40_000,
	IPPackets:   1_200_000,
	IPGrid:      []int{32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10},
	IPFixed:     128 << 10,

	// Paper: GTGraph R-MAT, 10^8 vertices, 10^9 edges; 128M–2G. Ours:
	// scale-16 R-MAT with 4M arrivals (burst overlay restores paper-scale
	// edge multiplicity; see graphgen.RMATConfig.BurstFraction).
	RMATScale: 16,
	RMATEdges: 4_000_000,
	RMATGrid:  []int{512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20},
	RMATFixed: 2 << 20,

	CarouselSources: 4096,
	CarouselDests:   256,
	CarouselPhase:   200_000,
	CarouselGrid:    []int{384 << 10, 1536 << 10, 6 << 20, 24 << 20},

	SampleFraction:     0.10,
	DBLPSampleFraction: 0.20,
	WorkloadFraction:   0.20,
	QuerySize:          10_000,
	SubgraphEdges:      10,
	Seed:               20111130, // the paper's arXiv date
}

// Small is a fast-test profile (seconds end to end) in the same collision
// regime as Repro.
var Small = Profile{
	Name: "small",

	DBLPAuthors: 6_000,
	DBLPPairs:   210_000,
	DBLPGrid:    []int{8 << 10, 16 << 10, 32 << 10},
	DBLPFixed:   16 << 10,

	IPAttackers: 2_000,
	IPTargets:   12_000,
	IPPackets:   300_000,
	IPGrid:      []int{8 << 10, 16 << 10, 32 << 10},
	IPFixed:     16 << 10,

	RMATScale: 12,
	RMATEdges: 150_000,
	RMATGrid:  []int{8 << 10, 16 << 10, 32 << 10},
	RMATFixed: 16 << 10,

	CarouselSources: 1024,
	CarouselDests:   64,
	CarouselPhase:   25_000,
	CarouselGrid:    []int{48 << 10, 192 << 10, 768 << 10, 3 << 20},

	SampleFraction:   0.20,
	WorkloadFraction: 0.20,
	QuerySize:        2_000,
	SubgraphEdges:    10,
	Seed:             20111130,
}

// Dataset is one generated stream with its sampling artifacts and the
// memory grid its experiments sweep.
type Dataset struct {
	Name string
	// Edges is the full stream in arrival order.
	Edges []stream.Edge
	// DataSample is the partitioning sample (reservoir, or first day for
	// the IP dataset).
	DataSample []stream.Edge
	// Exact is the ground-truth oracle over the full stream.
	Exact *stream.ExactCounter
	// MemoryGrid and FixedMemory are the sweep points (bytes).
	MemoryGrid  []int
	FixedMemory int
	// WorkloadSize is the §6.4 workload-sample size.
	WorkloadSize int
	// QuerySize is |Qe| / |Qg|.
	QuerySize int
	// SubgraphEdges is the per-subgraph edge count.
	SubgraphEdges int
	// Seed namespaces every derived seed for this dataset.
	Seed uint64
}

// Registry builds and caches datasets for one profile. Safe for concurrent
// use.
type Registry struct {
	Profile Profile

	mu    sync.Mutex
	cache map[string]*Dataset
}

// NewRegistry returns an empty registry over the profile.
func NewRegistry(p Profile) *Registry {
	return &Registry{Profile: p, cache: make(map[string]*Dataset)}
}

func (r *Registry) get(name string, build func() (*Dataset, error)) (*Dataset, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ds, ok := r.cache[name]; ok {
		return ds, nil
	}
	ds, err := build()
	if err != nil {
		return nil, err
	}
	r.cache[name] = ds
	return ds, nil
}

// DBLP returns the DBLP-like co-authorship dataset.
func (r *Registry) DBLP() (*Dataset, error) {
	return r.get("dblp", func() (*Dataset, error) {
		p := r.Profile
		cfg := graphgen.DefaultDBLP(p.DBLPAuthors, p.DBLPPairs, p.Seed+1)
		edges, err := cfg.Generate()
		if err != nil {
			return nil, fmt.Errorf("experiments: dblp: %w", err)
		}
		frac := p.DBLPSampleFraction
		if frac == 0 {
			frac = p.SampleFraction
		}
		return r.finish("DBLP", edges, reservoirSample(edges, frac, p.Seed+2),
			p.DBLPGrid, p.DBLPFixed)
	})
}

// IPAttack returns the IP-attack dataset. Its data sample is the first
// day's prefix, as in the paper.
func (r *Registry) IPAttack() (*Dataset, error) {
	return r.get("ipattack", func() (*Dataset, error) {
		p := r.Profile
		cfg := graphgen.DefaultIPAttack(p.IPAttackers, p.IPTargets, p.IPPackets, p.Seed+3)
		edges, err := cfg.Generate()
		if err != nil {
			return nil, fmt.Errorf("experiments: ipattack: %w", err)
		}
		sample := graphgen.FirstDay(edges)
		return r.finish("IPAttack", edges, sample, p.IPGrid, p.IPFixed)
	})
}

// RMAT returns the GTGraph-substitute R-MAT dataset.
func (r *Registry) RMAT() (*Dataset, error) {
	return r.get("rmat", func() (*Dataset, error) {
		p := r.Profile
		cfg := graphgen.DefaultRMAT(p.RMATScale, p.RMATEdges, p.Seed+4)
		edges, err := cfg.Generate()
		if err != nil {
			return nil, fmt.Errorf("experiments: rmat: %w", err)
		}
		return r.finish("GTGraph", edges, reservoirSample(edges, p.SampleFraction, p.Seed+5),
			p.RMATGrid, p.RMATFixed)
	})
}

// Carousel returns the rotation-policy stream: graphgen.ZipfCarouselStream
// at α 1.1, whose popular sources move at each of its five phase
// boundaries. Its data sample is phase 0's first tenth.
func (r *Registry) Carousel() (*Dataset, error) {
	return r.get("carousel", func() (*Dataset, error) {
		p := r.Profile
		edges, err := graphgen.ZipfCarouselStream(graphgen.CarouselConfig{
			Vertices:      p.CarouselSources,
			Destinations:  p.CarouselDests,
			Phases:        carouselPhases,
			EdgesPerPhase: p.CarouselPhase,
			Alpha:         1.1,
			Seed:          p.Seed + 6,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: carousel: %w", err)
		}
		return r.finish("Carousel", edges, edges[:p.CarouselPhase/10], p.CarouselGrid, 0)
	})
}

// All returns the three datasets in paper order (DBLP, IPAttack, GTGraph).
func (r *Registry) All() ([]*Dataset, error) {
	dblp, err := r.DBLP()
	if err != nil {
		return nil, err
	}
	ip, err := r.IPAttack()
	if err != nil {
		return nil, err
	}
	rmat, err := r.RMAT()
	if err != nil {
		return nil, err
	}
	return []*Dataset{dblp, ip, rmat}, nil
}

func (r *Registry) finish(name string, edges, sample []stream.Edge, grid []int, fixed int) (*Dataset, error) {
	p := r.Profile
	exact := stream.NewExactCounter()
	exact.ObserveAll(edges)
	workload := int(float64(len(edges)) * p.WorkloadFraction)
	if workload < 1 {
		workload = 1
	}
	return &Dataset{
		Name:          name,
		Edges:         edges,
		DataSample:    sample,
		Exact:         exact,
		MemoryGrid:    grid,
		FixedMemory:   fixed,
		WorkloadSize:  workload,
		QuerySize:     p.QuerySize,
		SubgraphEdges: p.SubgraphEdges,
		Seed:          p.Seed ^ (uint64(len(name)) << 32),
	}, nil
}

func reservoirSample(edges []stream.Edge, fraction float64, seed uint64) []stream.Edge {
	n := int(float64(len(edges)) * fraction)
	if n < 1 {
		n = 1
	}
	res := stream.NewReservoir(n, seed)
	res.ObserveAll(edges)
	out := make([]stream.Edge, len(res.Sample()))
	copy(out, res.Sample())
	return out
}
