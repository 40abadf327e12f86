package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"reflect"
	"runtime"
	"runtime/pprof"
	"testing"
)

// foldCase is a fixed set of stacks, innermost frame first.
var foldCase = []struct {
	frames []string
	v      int64
}{
	{[]string{"tsue/internal/wire.Checksum", "tsue/internal/blockstore.(*Store).ReadRange", "tsue/internal/cluster.(*OSD).handle"}, 10},
	{[]string{"runtime.memmove", "tsue/internal/logpool.(*BlockLog).Insert", "tsue/internal/update.(*tsue).append"}, 7},
	{[]string{"tsue/internal/gf256.mulXorSlice", "tsue/internal/rs.(*Code).Encode.func1", "tsue/internal/rs.(*Code).Encode"}, 6},
	{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, 5},
	{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, 3},
	{[]string{"bytes.Equal", "main.(*batch).compare"}, 2},
	{[]string{"syscall.Syscall6"}, 1},
}

func TestFoldFixedInput(t *testing.T) {
	f := newLayerFold()
	for _, c := range foldCase {
		f.add(c.frames, c.v)
	}
	if err := f.check(); err != nil {
		t.Fatal(err)
	}
	wantSelf := map[string]int64{
		"wire": 10, "logpool": 7, "gf256": 6,
		bucketGC: 5, bucketSched: 3, bucketBench: 2, bucketOther: 1,
	}
	wantCum := map[string]int64{
		"wire": 10, "blockstore": 10, "cluster": 10,
		"logpool": 7, "update": 7,
		"gf256": 6, "rs": 6, // rs twice on one stack counts once
	}
	if f.total != 34 {
		t.Errorf("total = %d, want 34", f.total)
	}
	if !reflect.DeepEqual(f.self, wantSelf) {
		t.Errorf("self = %v, want %v", f.self, wantSelf)
	}
	if !reflect.DeepEqual(f.cum, wantCum) {
		t.Errorf("cum = %v, want %v", f.cum, wantCum)
	}
}

func TestFoldDelta(t *testing.T) {
	stack := func(fs ...string) sample { return sample{frames: fs} }
	before := &profile{types: []string{"alloc_space"}}
	after := &profile{types: []string{"alloc_space"}}
	a := stack("tsue/internal/logpool.(*BlockLog).Insert")
	b := stack("tsue/internal/netsim.(*Fabric).Call")
	a.values, b.values = []int64{100}, []int64{40}
	before.samples = []sample{a, b}
	a2, b2 := a, b
	a2.values, b2.values = []int64{160}, []int64{40}
	c := stack("main.main")
	c.values = []int64{8}
	after.samples = []sample{b2, c, a2}
	f, err := foldDelta(before, after, "alloc_space")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"logpool": 60, bucketBench: 8}
	if f.total != 68 || !reflect.DeepEqual(f.self, want) {
		t.Errorf("total %d self %v, want 68 and %v", f.total, f.self, want)
	}
}

// Minimal protobuf encoding for a hand-built profile.
func pbKey(b []byte, num, wire int) []byte { return binary.AppendUvarint(b, uint64(num<<3|wire)) }

func pbUint(b []byte, num int, v uint64) []byte {
	return binary.AppendUvarint(pbKey(b, num, 0), v)
}

func pbBytes(b []byte, num int, p []byte) []byte {
	b = binary.AppendUvarint(pbKey(b, num, 2), uint64(len(p)))
	return append(b, p...)
}

func pbPacked(b []byte, num int, vs ...uint64) []byte {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	return pbBytes(b, num, p)
}

func TestParseProfileFixedInput(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"tsue/internal/wire.Checksum", "tsue/internal/blockstore.(*Store).ReadRange",
		"runtime.gcBgMarkWorker", "main.main"}
	var m []byte
	m = pbBytes(m, 1, pbUint(pbUint(nil, 1, 1), 2, 2))
	m = pbBytes(m, 1, pbUint(pbUint(nil, 1, 3), 2, 4))
	// Sample A: location ids unpacked, values packed; sample B the reverse.
	m = pbBytes(m, 2, pbPacked(pbUint(pbUint(nil, 1, 1), 1, 3), 2, 2, 20_000_000))
	m = pbBytes(m, 2, pbUint(pbUint(pbPacked(nil, 1, 2), 2, 1), 2, 10_000_000))
	// Location 1 holds wire.Checksum inlined into blockstore.ReadRange.
	line := func(fn uint64) []byte { return pbUint(pbUint(nil, 1, fn), 2, 42) }
	m = pbBytes(m, 4, pbBytes(pbBytes(pbUint(pbUint(nil, 1, 1), 3, 0x1000), 4, line(1)), 4, line(2)))
	m = pbBytes(m, 4, pbBytes(pbUint(nil, 1, 2), 4, line(3)))
	m = pbBytes(m, 4, pbBytes(pbUint(nil, 1, 3), 4, line(4)))
	for id, name := range []uint64{5, 6, 7, 8} {
		m = pbBytes(m, 5, pbUint(pbUint(nil, 1, uint64(id+1)), 2, name))
	}
	for _, s := range strs {
		m = pbBytes(m, 6, []byte(s))
	}
	m = pbUint(m, 12, 10_000_000) // period: skipped
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(m); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	for name, data := range map[string][]byte{"gzip": gz.Bytes(), "raw": m} {
		p, err := parseProfile(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantFrames := [][]string{
			{"tsue/internal/wire.Checksum", "tsue/internal/blockstore.(*Store).ReadRange", "main.main"},
			{"runtime.gcBgMarkWorker"},
		}
		if len(p.samples) != 2 || !reflect.DeepEqual(p.samples[0].frames, wantFrames[0]) || !reflect.DeepEqual(p.samples[1].frames, wantFrames[1]) {
			t.Fatalf("%s: samples = %+v", name, p.samples)
		}
		f, err := foldProfile(p, "cpu")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantSelf := map[string]int64{"wire": 20_000_000, bucketGC: 10_000_000}
		wantCum := map[string]int64{"wire": 20_000_000, "blockstore": 20_000_000}
		if f.total != 30_000_000 || !reflect.DeepEqual(f.self, wantSelf) || !reflect.DeepEqual(f.cum, wantCum) {
			t.Errorf("%s: fold = %+v", name, f)
		}
	}
	if _, err := parseProfile(m[:len(m)-3]); err == nil {
		t.Error("truncated profile parsed without error")
	}
}

var sink [][]byte

// TestParseRuntimeProfile decodes a profile the runtime itself wrote.
func TestParseRuntimeProfile(t *testing.T) {
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 64<<10))
	}
	runtime.GC() // the runtime publishes the profile as of the last GC
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	f, err := foldProfile(p, "alloc_space")
	if err != nil {
		t.Fatal(err)
	}
	if f.total <= 0 || len(p.samples) == 0 {
		t.Fatalf("empty allocation profile: total %d, %d samples", f.total, len(p.samples))
	}
}
