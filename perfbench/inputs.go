package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"oocphylo/internal/bio"
	"oocphylo/internal/model"
	"oocphylo/internal/parsimony"
	"oocphylo/internal/plf"
	"oocphylo/internal/search"
	"oocphylo/internal/sim"
	"oocphylo/internal/tree"
)

// inputs are the generated files a run hands to the program, plus their
// parsed forms for the in-process runs.
type inputs struct {
	alnPath, treePath string
	alignment         string // PHYLIP text, for the daemon's inline sessions
	newick            string
	pats              *bio.Patterns
}

// Simulation settings shared by every workload: a Γ(0.8) HKY dataset on
// a Yule tree (sim.NewDataset's defaults), as the repository's figures
// use. The tree is part of a workload's shape — the same for every seed,
// drawn from treeSeed — so that seeds vary the data, not the amount of
// work; the seed draws the sequences evolved along it, the parsimony
// start tree built from them and the daemon's requests.
const (
	simAlpha = 0.8
	treeSeed = 1
)

// makeInputs simulates a taxa × sites alignment from seed and writes it,
// with a tree, into dir. parsimonyStart picks the tree: the seeded
// parsimony stepwise-addition tree (a search's starting point), or else
// the simulated tree itself (a fixed topology to traverse or evaluate on).
func makeInputs(dir string, taxa, sites int, seed int64, parsimonyStart bool) (*inputs, error) {
	d, err := sim.NewDataset(sim.Config{Taxa: taxa, Sites: 1, GammaAlpha: simAlpha, Seed: treeSeed})
	if err != nil {
		return nil, err
	}
	alignment, err := sim.Evolve(d.Tree, d.Model, sites, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	in := &inputs{alnPath: filepath.Join(dir, "input.phy"), treePath: filepath.Join(dir, "input.nwk")}
	var text bytes.Buffer
	if err := bio.WritePhylip(&text, alignment); err != nil {
		return nil, err
	}
	in.alignment = text.String()
	if err := os.WriteFile(in.alnPath, text.Bytes(), 0o644); err != nil {
		return nil, err
	}
	// Parse the file back, as the CLI does, so the in-process runs see
	// the program's view of the inputs.
	aln, err := bio.ReadPhylip(&text, bio.NewAlphabet(bio.DNA))
	if err != nil {
		return nil, err
	}
	if in.pats, err = bio.Compress(aln); err != nil {
		return nil, err
	}
	t := d.Tree
	if parsimonyStart {
		if t, err = parsimony.StepwiseAddition(in.pats, rand.New(rand.NewSource(seed))); err != nil {
			return nil, err
		}
	}
	in.newick = tree.WriteNewick(t)
	if err := os.WriteFile(in.treePath, []byte(in.newick+"\n"), 0o644); err != nil {
		return nil, err
	}
	return in, nil
}

// tree parses the input tree afresh (the engine mutates its tree).
func (in *inputs) tree() (*tree.Tree, error) {
	t, err := tree.ParseNewick(in.newick)
	if err != nil {
		return nil, err
	}
	if t.NumTips != in.pats.NumTaxa() {
		return nil, fmt.Errorf("tree has %d tips, alignment %d taxa", t.NumTips, in.pats.NumTaxa())
	}
	return t, nil
}

// cliModel builds the model oocraxml builds with its default flags:
// GTR with unit exchangeabilities and empirical frequencies, Γ with
// α = 1 over 4 categories (cmd/oocraxml buildModel).
func cliModel(pats *bio.Patterns) (*model.Model, error) {
	m, err := model.NewGTR(pats.BaseFrequencies(), []float64{1, 1, 1, 1, 1, 1}, 4)
	if err != nil {
		return nil, err
	}
	if err := m.SetGamma(1.0, 4); err != nil {
		return nil, err
	}
	return m, nil
}

// vectorShape returns the inner-vector count and the per-vector length
// in float64s under the CLI model.
func vectorShape(in *inputs) (n, vecLen int, err error) {
	m, err := cliModel(in.pats)
	if err != nil {
		return 0, 0, err
	}
	vecLen, err = plf.CarrierLength(m, in.pats.NumPatterns(), plf.PrecisionF64)
	return in.pats.NumTaxa() - 2, vecLen, err
}

// answer is what a batch run must reproduce bit for bit.
type answer struct {
	bits   string // final lnL bit pattern, as -lnl-bits prints it
	newick string // result tree (search modes only)
}

// reference computes the answer with every vector in RAM
// (plf.InMemoryProvider), the paper's correctness criterion: an
// out-of-core run must return exactly the standard run's tree and
// likelihood. For a search it re-runs the search in RAM, because the
// CLI prints the optimised α only to four decimals, so a fresh engine
// could not re-evaluate the output tree at the exact model.
func reference(sh batchShape, in *inputs) (answer, error) {
	t, err := in.tree()
	if err != nil {
		return answer{}, err
	}
	m, err := cliModel(in.pats)
	if err != nil {
		return answer{}, err
	}
	e, err := plf.New(t, in.pats, m, plf.NewInMemoryProvider(t.NumInner(), plf.VectorLength(m, in.pats.NumPatterns())))
	if err != nil {
		return answer{}, err
	}
	defer e.Close()
	if sh.mode == "z" {
		if err := e.FullTraversal(t.Edges[0]); err != nil {
			return answer{}, err
		}
		lnl, err := e.LogLikelihoodAt(t.Edges[0])
		return answer{bits: lnlBits(lnl)}, err
	}
	res, err := search.New(e, searchOptions(sh, m, nil)).Run()
	if err != nil {
		return answer{}, err
	}
	return answer{bits: lnlBits(res.LnL), newick: tree.WriteNewick(e.T)}, nil
}

// searchOptions mirrors the CLI's mode-s options; onRound, when set, is
// the RoundCallback (the CLI sets one only for checkpoints, and the
// callback runs after a round's work, so it changes no computation).
func searchOptions(sh batchShape, m *model.Model, onRound func(search.Progress) error) search.Options {
	return search.Options{
		SPRRadius:     sh.radius,
		MaxRounds:     sh.rounds,
		OptimizeModel: m.Cats() > 1,
		RoundCallback: onRound,
	}
}
