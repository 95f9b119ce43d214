package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand/v2"
)

// opKind names what one client request does.
type opKind uint8

const (
	opGet opKind = iota
	opPut
	opTransfer
	opCheckpoint
)

// op is one generated request. The program under test only ever sees
// these values; everything random about a run is decided here, from the
// seed.
type op struct {
	kind   opKind
	key    int
	key2   int // transfer destination
	amount int // transfer amount
}

// Workload shape constants, shared by the generators and the set-ups.
const (
	cachedReadKeys     = 65536
	cachedReadCapacity = 8192
	cachedReadGetPct   = 95
	zipfS              = 1.1

	durableKeys     = 16384
	durableGetPct   = 50
	checkpointEvery = 1000 // client 0's ops per checkpoint

	shardCount      = 4
	shardAccounts   = 4096
	shardMaxAmount  = 100
	shardInitialBal = 1_000_000
)

// stream is one client's deterministic op sequence.
type stream struct {
	workload string
	client   int
	n        int // ops generated so far
	r        *rand.Rand
	zipf     *rand.Zipf
}

// newStream seeds client's stream from the run seed. Two clients of one
// run, and the same client under two seeds, draw independent sequences.
func newStream(workload string, seed uint64, client int) *stream {
	h := fnv.New64a()
	h.Write([]byte(workload))
	r := rand.New(rand.NewPCG(seed, h.Sum64()^uint64(client+1)*0x9e3779b97f4a7c15))
	s := &stream{workload: workload, client: client, r: r}
	if workload == "cached-read" {
		s.zipf = rand.NewZipf(r, zipfS, 1, cachedReadKeys-1)
	}
	return s
}

// scatter maps a Zipf rank to a key: multiplying by an odd constant is a
// bijection modulo 2^16, so hot ranks land on keys spread over the whole
// key space (and over every cache stripe) instead of the smallest keys.
func scatter(rank uint64) int {
	return int((rank*0x9e37 + 0x7f4a) % cachedReadKeys)
}

func (s *stream) next() op {
	s.n++
	switch s.workload {
	case "cached-read":
		k := scatter(s.zipf.Uint64())
		if s.r.IntN(100) < cachedReadGetPct {
			return op{kind: opGet, key: k}
		}
		return op{kind: opPut, key: k}
	case "durable-write":
		if s.client == 0 && s.n%checkpointEvery == 0 {
			return op{kind: opCheckpoint}
		}
		if s.r.IntN(100) < durableGetPct {
			return op{kind: opGet, key: s.r.IntN(durableKeys)}
		}
		// Each client writes its own half of the keys, so the last
		// acknowledged value of a key is the one its writer put last.
		return op{kind: opPut, key: s.client + clients*s.r.IntN(durableKeys/clients)}
	default: // shard-transfer
		a := s.r.IntN(shardAccounts)
		b := s.r.IntN(shardAccounts - 1)
		if b >= a {
			b++
		}
		return op{kind: opTransfer, key: a, key2: b, amount: 1 + s.r.IntN(shardMaxAmount)}
	}
}

// streamDigest hashes the first n ops of every client's stream: equal
// seeds give equal digests, and the digest is printed with every run.
func streamDigest(workload string, seed uint64, clients, n int) uint64 {
	h := fnv.New64a()
	var buf [32]byte
	for c := 0; c < clients; c++ {
		s := newStream(workload, seed, c)
		for i := 0; i < n; i++ {
			o := s.next()
			buf[0] = byte(c)
			buf[1] = byte(o.kind)
			binary.LittleEndian.PutUint64(buf[2:], uint64(o.key))
			binary.LittleEndian.PutUint64(buf[10:], uint64(o.key2))
			binary.LittleEndian.PutUint64(buf[18:], uint64(o.amount))
			h.Write(buf[:26])
		}
	}
	return h.Sum64()
}
