package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/eca"
	"repro/internal/oodb"
	"repro/internal/txn"
)

// storeChurn is the storage-heavy workload: 50,000 accounts of about
// 200 bytes on disk (about 1,300 pages against the 256-page default
// buffer pool), fsync on every commit, group commit and the background
// checkpointer on. The only rule is the query module's rule-maintained
// hash index on the account number. The mix: 60 % read-only
// transactions (four point reads, one through the index), 35 % that
// update the balance of two accounts, 5 % that insert an account.
type storeChurn struct {
	oids []oodb.OID // the populated accounts, by number
	sum0 int64      // their balance total
}

const (
	scAccounts = 50_000
	scOwnerLen = 160
	scPayload  = 3*8 + scOwnerLen // bytes of one account's attribute values
	scBatch    = 1000
)

func (*storeChurn) durable() bool { return true }

func (*storeChurn) schema(_ *bench, sys *core.System) error {
	acct := oodb.NewClass("Account",
		oodb.Attr{Name: "number", Type: oodb.TInt},
		oodb.Attr{Name: "balance", Type: oodb.TInt},
		oodb.Attr{Name: "branch", Type: oodb.TInt},
		oodb.Attr{Name: "owner", Type: oodb.TString})
	acct.Monitored = true // the index is maintained by rules on its events
	return sys.RegisterClass(acct)
}

func owner(rng *rand.Rand) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	var sb strings.Builder
	sb.Grow(scOwnerLen)
	for i := 0; i < scOwnerLen; i++ {
		sb.WriteByte(letters[rng.Intn(len(letters))])
	}
	return sb.String()
}

func (w *storeChurn) setup(b *bench, sys *core.System, rng *rand.Rand) error {
	w.oids, w.sum0 = make([]oodb.OID, scAccounts), 0
	for lo := 0; lo < scAccounts; lo += scBatch {
		t := sys.Begin()
		for i := lo; i < lo+scBatch; i++ {
			a, err := sys.DB.NewObject(t, "Account")
			if err != nil {
				return err
			}
			bal := int64(rng.Intn(10_000))
			if err := setAll(sys, t, a, "number", int64(i), "balance", bal,
				"branch", int64(rng.Intn(64)), "owner", owner(rng)); err != nil {
				return err
			}
			if err := sys.DB.Persist(t, a); err != nil {
				return err
			}
			w.oids[i] = a.OID()
			w.sum0 += bal
		}
		if err := t.Commit(); err != nil {
			return err
		}
	}
	start := wall.Now()
	_, err := sys.Query.CreateIndex("Account", "number")
	b.rulesMS += float64(wall.Now().Sub(start)) / 1e6
	return err
}

type churnOp struct {
	kind  uint8     // 0 read-only, 1 update, 2 insert
	acct  [4]uint32 // accounts read (kind 0) or updated (kind 1, first two)
	delta [2]int32  // balance deltas (kind 1); the new balance (kind 2)
}

type churnStream struct {
	w      *storeChurn
	ops    []churnOp
	i      int
	cur    *churnOp
	owners []string // owner strings of inserted accounts
	nextNo int64    // number of this client's next inserted account

	// Acknowledged effects of committed transactions.
	deltaSum int64
	inserted int64
}

func (w *storeChurn) stream(client int, rng *rand.Rand) stream {
	s := &churnStream{w: w, ops: make([]churnOp, streamLen), owners: make([]string, 64),
		nextNo: scAccounts + int64(client)}
	for i := range s.owners {
		s.owners[i] = owner(rng)
	}
	for i := range s.ops {
		op := &s.ops[i]
		switch p := rng.Intn(100); {
		case p < 60:
			op.kind = 0
		case p < 95:
			op.kind = 1
		default:
			op.kind = 2
		}
		for j := range op.acct {
			op.acct[j] = uint32(rng.Intn(scAccounts))
		}
		for op.kind == 1 && op.acct[1] == op.acct[0] {
			op.acct[1] = uint32(rng.Intn(scAccounts))
		}
		op.delta[0] = int32(rng.Intn(101) - 50)
		op.delta[1] = int32(rng.Intn(101) - 50)
		if op.kind == 2 {
			op.delta[0] = int32(rng.Intn(10_000))
		}
	}
	return s
}

func (s *churnStream) encode(buf []byte) []byte {
	for _, op := range s.ops {
		buf = append(buf, op.kind)
		for _, a := range op.acct {
			buf = u64(buf, uint64(a))
		}
		buf = u64(buf, uint64(uint32(op.delta[0]))<<32|uint64(uint32(op.delta[1])))
	}
	return buf
}

func (s *churnStream) next() {
	s.cur = &s.ops[s.i]
	s.i = (s.i + 1) % len(s.ops)
}

func (s *churnStream) run(c *client, t *txn.Txn) error {
	op := s.cur
	switch op.kind {
	case 0:
		for j := 0; j < 3; j++ {
			a, err := c.load(t, s.w.oids[op.acct[j]])
			if err != nil {
				return err
			}
			if _, err := c.get(t, a, "balance"); err != nil {
				return err
			}
		}
		found, err := c.selectEq(t, "Account", "number", int64(op.acct[3]))
		if err != nil {
			return err
		}
		if len(found) != 1 {
			return fmt.Errorf("index select of account %d found %d objects", op.acct[3], len(found))
		}
	case 1:
		for j := 0; j < 2; j++ {
			a, err := c.load(t, s.w.oids[op.acct[j]])
			if err != nil {
				return err
			}
			v, err := c.get(t, a, "balance")
			if err != nil {
				return err
			}
			if err := c.set(t, a, "balance", v.(int64)+int64(op.delta[j])); err != nil {
				return err
			}
		}
	case 2:
		a, err := c.newObject(t, "Account")
		if err != nil {
			return err
		}
		for _, kv := range [][2]any{
			{"number", s.nextNo}, {"balance", int64(op.delta[0])},
			{"branch", int64(op.acct[0] % 64)}, {"owner", s.owners[s.i%len(s.owners)]},
		} {
			if err := c.set(t, a, kv[0].(string), kv[1]); err != nil {
				return err
			}
		}
		if err := c.persist(t, a); err != nil {
			return err
		}
		s.nextNo += nClients // the clients number their inserts apart
	}
	return nil
}

func (s *churnStream) finish(committed bool) {
	if !committed {
		return
	}
	switch s.cur.kind {
	case 1:
		s.deltaSum += int64(s.cur.delta[0]) + int64(s.cur.delta[1])
	case 2:
		s.deltaSum += int64(s.cur.delta[0])
		s.inserted++
	}
}

func (s *churnStream) userBytes() int64 {
	switch s.cur.kind {
	case 1:
		return 2 * scPayload
	case 2:
		return scPayload
	}
	return 0
}

// checkLive compares the rule-maintained index with an extent scan.
func (*storeChurn) checkLive(_ *bench, sys *core.System) error {
	ix := sys.Query.Index("Account", "number")
	if ix == nil {
		return fmt.Errorf("%w: the account index is gone", errCheck)
	}
	t := sys.Begin()
	defer t.Commit()
	n := 0
	var bad error
	sys.DB.Extent("Account", func(oid oodb.OID) {
		if bad != nil {
			return
		}
		n++
		a, err := sys.DB.Load(t, oid)
		if err != nil {
			bad = err
			return
		}
		num, err := getInt(sys, t, a, "number")
		if err != nil {
			bad = err
			return
		}
		if got := ix.Lookup(num); len(got) != 1 || got[0] != oid {
			bad = fmt.Errorf("%w: index maps account %d to %v, the extent has %v", errCheck, num, got, oid)
		}
	})
	if bad != nil {
		return bad
	}
	if ix.Size() != n {
		return fmt.Errorf("%w: index holds %d entries, the extent %d accounts", errCheck, ix.Size(), n)
	}
	return nil
}

// check compares the reopened store with the acknowledged work.
func (w *storeChurn) check(b *bench, sys *core.System) error {
	var deltas, inserted int64
	for _, c := range b.clients {
		s := c.stream.(*churnStream)
		deltas += s.deltaSum
		inserted += s.inserted
	}
	sum, n, err := sumAccounts(sys)
	if err != nil {
		return err
	}
	b.liveBytes = n * scPayload
	if want := int64(scAccounts) + inserted; n != want {
		return fmt.Errorf("%w: %d accounts after reopen, want %d (%d acknowledged inserts)", errCheck, n, want, inserted)
	}
	if want := w.sum0 + deltas; sum != want {
		return fmt.Errorf("%w: balance total %d after reopen, want %d", errCheck, sum, want)
	}
	return nil
}

func sumAccounts(sys *core.System) (sum, n int64, err error) {
	t := sys.Begin()
	defer t.Commit()
	sys.DB.Extent("Account", func(oid oodb.OID) {
		if err != nil {
			return
		}
		var a *oodb.Object
		if a, err = sys.DB.Load(t, oid); err != nil {
			return
		}
		var bal int64
		if bal, err = getInt(sys, t, a, "balance"); err != nil {
			return
		}
		sum += bal
		n++
	})
	return sum, n, err
}

// plant loses one acknowledged deposit.
func (w *storeChurn) plant(_ *bench, sys *core.System) error {
	t := sys.Begin()
	a, err := sys.DB.Load(t, w.oids[0])
	if err != nil {
		return err
	}
	if err := addInt(&oodb.Ctx{DB: sys.DB, Txn: t}, a, "balance", -1); err != nil {
		return err
	}
	return t.Commit()
}

func (*storeChurn) deadLetter(*bench, eca.DeadLetter) bool { return true }
