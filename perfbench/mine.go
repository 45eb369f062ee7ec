package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"time"

	"ppdm"
)

// Parameters of the mining workload: the E12 basket generator at 1M
// transactions over 40 items, exact mining at support 0.02 up to size 5,
// and randomized mining of a BitFlip(0.2) copy up to size 4.
const (
	mineBaskets   = 1_000_000
	mineItems     = 40
	mineSupport   = 0.02
	mineMaxSize   = 5
	rmineMaxSize  = 4
	mineFlipRate  = 0.2
	minePatterns  = 6
	minePatternSz = 3
	minePatternP  = 0.15
)

// mineBench is the tx-file mining path of ppdm-bench -txfile: a
// transaction file is read and mined, once in the clear and once as its
// randomized copy.
type mineBench struct {
	orig, rand string // the transaction files
	origN      int    // transactions in each file
	randN      int
	data       *ppdm.Transactions // what the original file holds
	rdata      *ppdm.Transactions // what the randomized file holds
	bf         ppdm.BitFlip
	want       []ppdm.Itemset // exact itemsets from the horizontal engine
	wantSmall  []ppdm.Itemset // the same, up to the randomized size bound
	rwant      []ppdm.Itemset // estimated itemsets from the horizontal engine
}

// prepareMine writes both transaction files. The file format has no line
// for an empty transaction (ReadTransactions skips blank lines), so the
// files hold the generator's non-empty baskets and the randomized copy is
// drawn from those.
func prepareMine(dir string, seed uint64) (bench, error) {
	gen, _, err := ppdm.GenerateBaskets(ppdm.BasketGenConfig{
		N: mineBaskets, Items: mineItems, Patterns: minePatterns,
		PatternSize: minePatternSz, PatternProb: minePatternP, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	b := &mineBench{orig: filepath.Join(dir, "tx.dat"), rand: filepath.Join(dir, "tx-randomized.dat")}
	if b.data, err = nonEmpty(gen); err != nil {
		return nil, err
	}
	if b.bf, err = ppdm.NewBitFlip(mineFlipRate); err != nil {
		return nil, err
	}
	rnd, err := b.bf.Randomize(b.data, seed+1)
	if err != nil {
		return nil, err
	}
	if b.rdata, err = nonEmpty(rnd); err != nil {
		return nil, err
	}
	if b.origN, err = writeTransactions(b.orig, b.data); err != nil {
		return nil, err
	}
	if b.randN, err = writeTransactions(b.rand, b.rdata); err != nil {
		return nil, err
	}
	return b, nil
}

// nonEmpty returns the dataset's non-empty transactions.
func nonEmpty(d *ppdm.Transactions) (*ppdm.Transactions, error) {
	out, err := ppdm.NewTransactions(d.NumItems())
	if err != nil {
		return nil, err
	}
	var tx []int
	for i := 0; i < d.N(); i++ {
		tx = tx[:0]
		for it := 0; it < d.NumItems(); it++ {
			if d.Contains(i, it) {
				tx = append(tx, it)
			}
		}
		if len(tx) > 0 {
			if err := out.Add(tx); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// writeTransactions writes the dataset in the transaction-file format, one
// line of space-separated item IDs per non-empty transaction, and returns
// the number of lines.
func writeTransactions(path string, d *ppdm.Transactions) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	var line []byte
	n := 0
	for i := 0; i < d.N(); i++ {
		line = line[:0]
		for it := 0; it < d.NumItems(); it++ {
			if d.Contains(i, it) {
				if len(line) > 0 {
					line = append(line, ' ')
				}
				line = strconv.AppendInt(line, int64(it), 10)
			}
		}
		if len(line) == 0 {
			continue
		}
		n++
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			f.Close()
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return n, f.Close()
}

// expect mines both files' transactions, as generated in memory, on the
// horizontal row-scan engine, which shares no counting code with the
// TID-bitmap engine the measured path uses.
func (b *mineBench) expect() error {
	var err error
	b.want, err = ppdm.FrequentItemsets(b.data, ppdm.MiningConfig{
		MinSupport: mineSupport, MaxSize: mineMaxSize, Vertical: ppdm.VerticalOff,
	})
	if err != nil {
		return err
	}
	for _, s := range b.want {
		if len(s.Items) <= rmineMaxSize {
			b.wantSmall = append(b.wantSmall, s)
		}
	}
	b.rwant, err = ppdm.FrequentFromRandomized(b.rdata, b.bf, ppdm.MiningConfig{
		MinSupport: mineSupport, MaxSize: rmineMaxSize, Vertical: ppdm.VerticalOff,
	})
	return err
}

func (b *mineBench) close() {}

// measure runs mining rounds. A round reads the original file and mines it
// exactly, then reads the randomized file and mines it with the BitFlip
// estimator. Both sets of itemsets must equal the horizontal engine's.
func (b *mineBench) measure(d time.Duration, tr *tracer) (*outcome, error) {
	var (
		exact, estimated  []ppdm.Itemset
		exactSec, randSec float64 // the halves of untraced rounds
		exactCPU, randCPU time.Duration
		rounds            int
	)
	op := func(tr *tracer, root int) error {
		t0, c0 := time.Now(), cpuTime()
		var err error
		exact, err = b.mineFile(tr, root, b.orig, "", func(tx *ppdm.Transactions) ([]ppdm.Itemset, error) {
			return ppdm.FrequentItemsets(tx, ppdm.MiningConfig{MinSupport: mineSupport, MaxSize: mineMaxSize})
		})
		if err != nil {
			return err
		}
		t1, c1 := time.Now(), cpuTime()
		estimated, err = b.mineFile(tr, root, b.rand, "r", func(tx *ppdm.Transactions) ([]ppdm.Itemset, error) {
			return ppdm.FrequentFromRandomized(tx, b.bf, ppdm.MiningConfig{MinSupport: mineSupport, MaxSize: rmineMaxSize})
		})
		if err == nil && tr == nil {
			exactSec += t1.Sub(t0).Seconds()
			randSec += time.Since(t1).Seconds()
			exactCPU += c1 - c0
			randCPU += cpuTime() - c1
			rounds++
		}
		return err
	}
	check := func() error {
		if !reflect.DeepEqual(exact, b.want) {
			return fmt.Errorf("exact itemsets differ from the horizontal engine's (%d vs %d)", len(exact), len(b.want))
		}
		if !reflect.DeepEqual(estimated, b.rwant) {
			return fmt.Errorf("estimated itemsets differ from the horizontal engine's (%d vs %d)", len(estimated), len(b.rwant))
		}
		return nil
	}
	out := opLoop(d, tr, "", op, check).outcome(float64(b.origN + b.randN))

	both, fp, fn := ppdm.CompareMining(b.wantSmall, b.rwant)
	f1 := ratio(float64(2*both), float64(2*both+fp+fn))
	out.quality = f1
	out.named = []named{
		{"mine_tx_per_s", ratio(float64(b.origN*rounds), exactSec), "tx/s", rounds},
		{"rmine_tx_per_s", ratio(float64(b.randN*rounds), randSec), "tx/s", rounds},
		{"mine_tx_per_cpu_s", ratio(float64(b.origN*rounds), exactCPU.Seconds()), "tx/cpu-s", rounds},
		{"rmine_tx_per_cpu_s", ratio(float64(b.randN*rounds), randCPU.Seconds()), "tx/cpu-s", rounds},
		{"mine_round_s", median(out.wallMS) / 1e3, "s", len(out.wallMS)},
		{"rmine_f1", f1, "frac", len(b.wantSmall)},
		{"peak_heap_mb", median(out.heapMB), "MiB", len(out.heapMB)},
		{"mine_tx_in_files", float64(b.origN + b.randN), "tx", 2},
	}
	if tr != nil {
		total, self := perOp(tr.snapshot(), out.tracedOps)
		out.layers["assoc.read_s"] = total["assoc.ReadTransactionsFile"]
		out.layers["assoc.rread_s"] = total["assoc.rReadTransactionsFile"]
		out.layers["assoc.index_s"] = total["assoc.Index"] + total["assoc.rIndex"]
		out.layers["assoc.count_s"] = total["assoc.FrequentItemsets"]
		out.layers["assoc.rcount_s"] = total["assoc.rFrequentFromRandomized"]
		out.layers["assoc.itemsets"] = float64(len(exact))
		out.layers["assoc.ritemsets"] = float64(len(estimated))
		out.layers["trace.unaccounted_frac"] = ratio(self["op"], total["op"])
	}
	return out, nil
}

// mineFile reads one transaction file, builds its TID-bitmap index and
// mines it, each call a span whose name carries prefix.
func (b *mineBench) mineFile(tr *tracer, root int, path, prefix string,
	mine func(*ppdm.Transactions) ([]ppdm.Itemset, error)) ([]ppdm.Itemset, error) {
	id := tr.begin("assoc."+prefix+"ReadTransactionsFile", root)
	tx, err := ppdm.ReadTransactionsFile(path, mineItems)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		// Build the index on its own so indexing and counting split; the
		// untraced path builds it inside mining, as a user's call does.
		id = tr.begin("assoc."+prefix+"Index", root)
		tx.Index(0)
		tr.end(id)
	}
	name := "assoc.FrequentItemsets"
	if prefix != "" {
		name = "assoc.rFrequentFromRandomized"
	}
	id = tr.begin(name, root)
	defer tr.end(id)
	return mine(tx)
}
