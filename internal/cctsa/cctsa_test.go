package cctsa

import (
	"bytes"
	"testing"
	"testing/quick"

	"rtle/internal/core"
	"rtle/internal/mem"
	"rtle/internal/rng"
)

func TestGenerateGenomeAlphabetAndLength(t *testing.T) {
	r := rng.NewXoshiro256(1)
	g := GenerateGenome(r, 500)
	if len(g) != 500 {
		t.Fatalf("length %d, want 500", len(g))
	}
	for i, b := range g {
		if baseCode[b] == 0xFF {
			t.Fatalf("invalid base %q at %d", b, i)
		}
	}
}

func TestGenerateGenomeDeterministic(t *testing.T) {
	a := GenerateGenome(rng.NewXoshiro256(7), 100)
	b := GenerateGenome(rng.NewXoshiro256(7), 100)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different genomes")
	}
}

func TestSampleReadsCoverage(t *testing.T) {
	r := rng.NewXoshiro256(2)
	g := GenerateGenome(r, 3600)
	reads := SampleReads(r, g, 36, 10, 0)
	if want := 1000; len(reads) != want {
		t.Fatalf("reads = %d, want %d", len(reads), want)
	}
	for _, rd := range reads {
		if len(rd) != 36 {
			t.Fatalf("read length %d, want 36", len(rd))
		}
		if !bytes.Contains(g, rd) {
			t.Fatal("error-free read is not a substring of the genome")
		}
	}
}

func TestSampleReadsWithErrors(t *testing.T) {
	r := rng.NewXoshiro256(3)
	g := GenerateGenome(r, 2000)
	reads := SampleReads(r, g, 36, 20, 0.5)
	mismatched := 0
	for _, rd := range reads {
		if !bytes.Contains(g, rd) {
			mismatched++
		}
	}
	if mismatched == 0 {
		t.Fatal("50% error rate produced no corrupted reads")
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	seqs := []string{"ACGT", "AAAA", "TTTT", "GATTACA"}
	for _, s := range seqs {
		v, ok := PackKmer([]byte(s), len(s))
		if !ok {
			t.Fatalf("PackKmer(%q) failed", s)
		}
		if got := string(UnpackKmer(v, len(s))); got != s {
			t.Fatalf("round trip %q -> %q", s, got)
		}
	}
}

func TestPackKmerRejectsInvalid(t *testing.T) {
	if _, ok := PackKmer([]byte("ACGN"), 4); ok {
		t.Fatal("packed a k-mer with an invalid base")
	}
	if _, ok := PackKmer([]byte("AC"), 4); ok {
		t.Fatal("packed a k-mer longer than the sequence")
	}
	if _, ok := PackKmer([]byte("ACGT"), 0); ok {
		t.Fatal("packed k = 0")
	}
	if _, ok := PackKmer(make([]byte, 40), 32); ok {
		t.Fatal("packed k > 31")
	}
}

func TestPackKmerGuardBitDisambiguates(t *testing.T) {
	a, _ := PackKmer([]byte("AA"), 2)
	b, _ := PackKmer([]byte("AAA"), 3)
	if a == b {
		t.Fatal("k-mers of different lengths collide")
	}
	if a == 0 || b == 0 {
		t.Fatal("packed k-mer is 0 (reserved)")
	}
}

func TestExtendRightMatchesRepack(t *testing.T) {
	seq := []byte("ACGTACGTACG")
	k := 5
	v, _ := PackKmer(seq, k)
	for i := 1; i+k <= len(seq); i++ {
		v = ExtendRight(v, k, uint64(baseCode[seq[i+k-1]]))
		want, _ := PackKmer(seq[i:], k)
		if v != want {
			t.Fatalf("ExtendRight diverges from repacking at offset %d", i)
		}
	}
}

func TestExtendLeftMatchesRepack(t *testing.T) {
	seq := []byte("ACGTACGTACG")
	k := 5
	last := len(seq) - k
	v, _ := PackKmer(seq[last:], k)
	for i := last - 1; i >= 0; i-- {
		v = ExtendLeft(v, k, uint64(baseCode[seq[i]]))
		want, _ := PackKmer(seq[i:], k)
		if v != want {
			t.Fatalf("ExtendLeft diverges from repacking at offset %d", i)
		}
	}
}

func TestFirstLastBase(t *testing.T) {
	v, _ := PackKmer([]byte("GAT"), 3)
	if Bases[FirstBase(v, 3)] != 'G' {
		t.Fatal("FirstBase wrong")
	}
	if Bases[LastBase(v)] != 'T' {
		t.Fatal("LastBase wrong")
	}
}

func TestQuickPackRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		k := len(raw)
		if k > 31 {
			k = 31
		}
		seq := make([]byte, k)
		for i := 0; i < k; i++ {
			seq[i] = Bases[raw[i]&3]
		}
		v, ok := PackKmer(seq, k)
		return ok && bytes.Equal(UnpackKmer(v, k), seq)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAssemblyReconstructsGenomeExact is the end-to-end correctness test
// with deterministic full coverage: one read per genome position (sliding
// window), so every k-mer is present, the De Bruijn graph of a repeat-free
// genome is a single path, and single-threaded assembly must return the
// genome as exactly one contig.
func TestAssemblyReconstructsGenomeExact(t *testing.T) {
	cfg := Config{GenomeLen: 3000, Threads: 1, Seed: 5}.withDefaults()
	genome := GenerateGenome(rng.NewXoshiro256(cfg.Seed), cfg.GenomeLen)
	var reads [][]byte
	for i := 0; i+cfg.ReadLen <= len(genome); i++ {
		reads = append(reads, genome[i:i+cfg.ReadLen])
	}
	in := &Input{Cfg: cfg, Genome: genome, Reads: reads}
	res := in.RunTransactified(func(m *mem.Memory) core.Method {
		return core.NewLock(m, core.Policy{})
	})
	if len(res.Contigs) != 1 {
		t.Fatalf("contigs = %d, want 1 (repeat-free genome, full coverage)", len(res.Contigs))
	}
	if !bytes.Equal(res.Contigs[0], in.Genome) {
		t.Fatalf("assembled contig (len %d) differs from genome (len %d)", len(res.Contigs[0]), len(in.Genome))
	}
}

// TestAssemblyFromSampledReads uses realistic random read sampling: k-mers
// near the genome ends can be uncovered, so assembly may split or trim
// contigs slightly — but every contig must be a genome substring and the
// longest must cover almost everything.
func TestAssemblyFromSampledReads(t *testing.T) {
	cfg := Config{GenomeLen: 3000, Coverage: 50, Threads: 1, Seed: 5}
	in := Prepare(cfg)
	res := in.RunTransactified(func(m *mem.Memory) core.Method {
		return core.NewLock(m, core.Policy{})
	})
	if len(res.Contigs) == 0 || len(res.Contigs) > 5 {
		t.Fatalf("contigs = %d, want a handful at coverage 50", len(res.Contigs))
	}
	if res.Longest < cfg.GenomeLen*9/10 {
		t.Fatalf("longest contig %d, want at least 90%% of %d", res.Longest, cfg.GenomeLen)
	}
	for _, c := range res.Contigs {
		if !bytes.Contains(in.Genome, c) {
			t.Fatalf("contig of length %d is not a genome substring", len(c))
		}
	}
}

// TestAssemblyVariantsAgree: original-style and transactified assembly
// must produce identical k-mer tables and equivalent contigs.
func TestAssemblyVariantsAgree(t *testing.T) {
	cfg := Config{GenomeLen: 2000, Coverage: 12, Threads: 2, Seed: 9, Stripes: 64}
	in := Prepare(cfg)
	tx := in.RunTransactified(func(m *mem.Memory) core.Method {
		return core.NewTLE(m, core.Policy{})
	})
	orig := in.RunOriginal()
	if tx.DistinctKmers != orig.DistinctKmers {
		t.Fatalf("distinct k-mers differ: tx %d vs original %d", tx.DistinctKmers, orig.DistinctKmers)
	}
	// Contig boundaries depend on thread races, but the k-mers consumed
	// across all contigs must equal the solid-k-mer population either
	// way (MinCount is 1 here, so every distinct k-mer is solid).
	if tx.KmersInContigs != tx.DistinctKmers {
		t.Fatalf("transactified: %d k-mers in contigs, want %d", tx.KmersInContigs, tx.DistinctKmers)
	}
	if orig.KmersInContigs != orig.DistinctKmers {
		t.Fatalf("original: %d k-mers in contigs, want %d", orig.KmersInContigs, orig.DistinctKmers)
	}
}

// TestAssemblyConcurrentMatchesSequential: multi-threaded counting must
// produce the same table as single-threaded, for every elision method.
func TestAssemblyConcurrentMatchesSequential(t *testing.T) {
	cfg1 := Config{GenomeLen: 1500, Coverage: 10, Seed: 4, Threads: 1}
	base := Prepare(cfg1).RunTransactified(func(m *mem.Memory) core.Method {
		return core.NewLock(m, core.Policy{})
	})
	for _, name := range []string{"TLE", "RW-TLE", "FG-TLE"} {
		t.Run(name, func(t *testing.T) {
			cfgN := cfg1
			cfgN.Threads = 4
			in := Prepare(cfgN)
			res := in.RunTransactified(func(m *mem.Memory) core.Method {
				switch name {
				case "TLE":
					return core.NewTLE(m, core.Policy{})
				case "RW-TLE":
					return core.NewRWTLE(m, core.Policy{})
				default:
					return core.NewFGTLE(m, 1024, core.Policy{})
				}
			})
			if res.DistinctKmers != base.DistinctKmers {
				t.Fatalf("distinct k-mers %d, want %d — counts corrupted under %s", res.DistinctKmers, base.DistinctKmers, name)
			}
			if res.KmersInContigs != base.KmersInContigs {
				t.Fatalf("k-mers in contigs %d, want %d — extension lost/duplicated k-mers under %s", res.KmersInContigs, base.KmersInContigs, name)
			}
		})
	}
}

// TestAssemblyWithErrorsFiltersWeakKmers: with sequencing errors and
// MinCount 2+, erroneous k-mers must not enter contigs, and the genome is
// still largely reconstructed. How long the longest contig gets is only
// deterministic on one thread: where two extension threads meet, and so
// where a contig splits, is timing. The two-thread run is held to what does
// not depend on it: the same k-mers end up in contigs, and every long contig
// is a genome substring.
func TestAssemblyWithErrorsFiltersWeakKmers(t *testing.T) {
	cfg := Config{GenomeLen: 2000, Coverage: 30, ErrorRate: 0.002, MinCount: 3, Threads: 1, Seed: 8}
	in := Prepare(cfg)
	tle := func(m *mem.Memory) core.Method { return core.NewTLE(m, core.Policy{}) }
	one := in.RunTransactified(tle)
	if one.Longest < cfg.GenomeLen/4 {
		t.Fatalf("longest contig %d too short for a lightly-corrupted genome of %d", one.Longest, cfg.GenomeLen)
	}
	in.Cfg.Threads = 2
	two := in.RunTransactified(tle)
	if two.KmersInContigs != one.KmersInContigs {
		t.Fatalf("two threads put %d k-mers in contigs, one thread %d", two.KmersInContigs, one.KmersInContigs)
	}
	for _, res := range []*Result{one, two} {
		for _, contig := range res.Contigs {
			if len(contig) >= 200 && !bytes.Contains(in.Genome, contig) {
				t.Fatalf("%d threads: a long contig (len %d) is not a genome substring — error k-mers leaked through", res.Threads, len(contig))
			}
		}
	}
}

func TestLockFallbackRateLow(t *testing.T) {
	// §6.4.2: elision variants rarely fall back to the lock in ccTSA.
	cfg := Config{GenomeLen: 1500, Coverage: 8, Threads: 4, Seed: 6}
	in := Prepare(cfg)
	res := in.RunTransactified(func(m *mem.Memory) core.Method {
		return core.NewTLE(m, core.Policy{})
	})
	rate := float64(res.Stats.LockRuns) / float64(res.Stats.Ops)
	if rate > 0.05 {
		t.Fatalf("lock fallback rate %.3f too high for this workload", rate)
	}
}

func TestN50(t *testing.T) {
	r := &Result{
		Contigs:    [][]byte{make([]byte, 100), make([]byte, 50), make([]byte, 10)},
		TotalBases: 160,
	}
	// Half of 160 is 80; the longest contig (100) already covers it.
	if got := r.N50(); got != 100 {
		t.Fatalf("N50 = %d, want 100", got)
	}
	r2 := &Result{
		Contigs:    [][]byte{make([]byte, 60), make([]byte, 50), make([]byte, 40), make([]byte, 10)},
		TotalBases: 160,
	}
	// Cumulative 60, 110 >= 80 -> N50 is 50.
	if got := r2.N50(); got != 50 {
		t.Fatalf("N50 = %d, want 50", got)
	}
	if (&Result{}).N50() != 0 {
		t.Fatal("empty assembly N50 should be 0")
	}
}

func TestN50SingleContigEqualsGenome(t *testing.T) {
	cfg := Config{GenomeLen: 2000, Threads: 1, Seed: 3}.withDefaults()
	genome := GenerateGenome(rng.NewXoshiro256(cfg.Seed), cfg.GenomeLen)
	var reads [][]byte
	for i := 0; i+cfg.ReadLen <= len(genome); i++ {
		reads = append(reads, genome[i:i+cfg.ReadLen])
	}
	in := &Input{Cfg: cfg, Genome: genome, Reads: reads}
	res := in.RunTransactified(func(m *mem.Memory) core.Method { return core.NewLock(m, core.Policy{}) })
	if res.N50() != cfg.GenomeLen {
		t.Fatalf("N50 = %d, want %d for a single-contig assembly", res.N50(), cfg.GenomeLen)
	}
}

func TestDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.ReadLen != 36 || cfg.K != 27 || cfg.Stripes != 4096 {
		t.Fatalf("paper defaults wrong: %+v", cfg)
	}
}
