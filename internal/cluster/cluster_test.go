package cluster

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"tsue/internal/sim"
	"tsue/internal/update"
	"tsue/internal/wire"
)

// testConfig builds a small cluster configuration that still exercises
// sealing, recycling, stalls, and threshold recycles.
func testConfig(engine string) Config {
	cfg := DefaultConfig()
	cfg.OSDs = 8
	cfg.K, cfg.M = 4, 2
	cfg.BlockSize = 16 << 10
	cfg.Engine = engine
	cfg.EngineOpts = update.Options{
		UnitSize:         32 << 10,
		MaxUnits:         4,
		Pools:            2,
		Copies:           2,
		UseDeltaLog:      true,
		DataLocality:     true,
		ParityLocality:   true,
		UseLogPool:       true,
		RecycleThreshold: 64 << 10,
		PLRReserve:       8 << 10,
		CordBufferSize:   32 << 10,
	}
	return cfg
}

// run executes fn inside a fresh simulated cluster and returns it.
func run(t *testing.T, cfg Config, fn func(p *sim.Proc, c *Cluster, cl *Client)) *Cluster {
	t.Helper()
	c := MustNew(cfg)
	cl := c.NewClient()
	done := false
	c.Env.Go("test", func(p *sim.Proc) {
		fn(p, c, cl)
		done = true
	})
	c.Env.Run(0)
	c.Env.Close()
	if !done {
		t.Fatal("test body deadlocked (did not complete)")
	}
	return c
}

func TestWriteReadRoundTrip(t *testing.T) {
	cfg := testConfig("fo")
	run(t, cfg, func(p *sim.Proc, c *Cluster, cl *Client) {
		rng := rand.New(rand.NewSource(1))
		content := make([]byte, 3*c.StripeWidth()/2) // 1.5 stripes
		rng.Read(content)
		ino, err := cl.Create(p, "f", int64(len(content)))
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.WriteFile(p, ino, content); err != nil {
			t.Fatal(err)
		}
		got, err := cl.Read(p, ino, 0, int64(len(content)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content) {
			t.Fatal("read-back mismatch")
		}
		// Cross-block read.
		off := c.Cfg.BlockSize - 100
		got, err = cl.Read(p, ino, off, 300)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content[off:off+300]) {
			t.Fatal("cross-block read mismatch")
		}
		if n, err := c.Scrub(); err != nil || n == 0 {
			t.Fatalf("scrub after write: n=%d err=%v", n, err)
		}
	})
}

// TestUpdateScrubContent is the end-to-end invariant for every engine:
// after a stream of random updates plus a drain, (a) every stripe's parity
// equals the re-encode of its data, and (b) reads return exactly the
// reference content.
func TestUpdateScrubContent(t *testing.T) {
	for _, engine := range update.Names() {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			cfg := testConfig(engine)
			run(t, cfg, func(p *sim.Proc, c *Cluster, cl *Client) {
				rng := rand.New(rand.NewSource(7))
				fileSize := 4 * c.StripeWidth()
				content := make([]byte, fileSize)
				rng.Read(content)
				ino, err := cl.Create(p, "f", fileSize)
				if err != nil {
					t.Fatal(err)
				}
				if err := cl.WriteFile(p, ino, content); err != nil {
					t.Fatal(err)
				}
				// 300 random small updates, single client => deterministic
				// reference content.
				for i := 0; i < 300; i++ {
					off := int64(rng.Intn(int(fileSize - 4096)))
					n := 1 + rng.Intn(4096)
					buf := make([]byte, n)
					rng.Read(buf)
					if err := cl.Update(p, ino, off, buf); err != nil {
						t.Fatalf("update %d: %v", i, err)
					}
					copy(content[off:], buf)
				}
				if err := c.DrainAll(p, cl); err != nil {
					t.Fatal(err)
				}
				n, err := c.Scrub()
				if err != nil {
					t.Fatalf("scrub: %v", err)
				}
				if n != 4 {
					t.Fatalf("scrubbed %d stripes, want 4", n)
				}
				got, err := cl.Read(p, ino, 0, fileSize)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, content) {
					t.Fatal("content mismatch after updates+drain")
				}
			})
		})
	}
}

// TestUpdateOutsideFileRejected: an update past the end of the file or at
// a negative offset is refused by every engine before it is acked, so a
// logging engine cannot accept a record its recycler can never apply; the
// cluster then drains and scrubs clean, with the file unchanged.
func TestUpdateOutsideFileRejected(t *testing.T) {
	for _, engine := range update.Names() {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			run(t, testConfig(engine), func(p *sim.Proc, c *Cluster, cl *Client) {
				content := make([]byte, c.StripeWidth())
				rand.New(rand.NewSource(5)).Read(content)
				ino, err := cl.Create(p, "f", int64(len(content)))
				if err != nil {
					t.Fatal(err)
				}
				if err := cl.WriteFile(p, ino, content); err != nil {
					t.Fatal(err)
				}
				for _, off := range []int64{
					c.StripeWidth() + 10,   // past EOF: no such block
					-5,                     // block 0, negative in-block offset
					-c.StripeWidth() - 100, // wraps to a huge stripe number
				} {
					if err := cl.Update(p, ino, off, []byte("hello")); err == nil {
						t.Fatalf("update at %d acked", off)
					}
				}
				if err := c.DrainAll(p, cl); err != nil {
					t.Fatal(err)
				}
				if n, err := c.Scrub(); err != nil || n != 1 {
					t.Fatalf("scrub: n=%d err=%v", n, err)
				}
				got, err := cl.Read(p, ino, 0, int64(len(content)))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, content) {
					t.Fatal("content changed by rejected updates")
				}
			})
		})
	}
}

// TestConcurrentClientsScrub checks parity consistency under concurrent
// multi-client updates (content is racy by design; parity must not be).
func TestConcurrentClientsScrub(t *testing.T) {
	for _, engine := range update.Names() {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			cfg := testConfig(engine)
			c := MustNew(cfg)
			admin := c.NewClient()
			var ino uint64
			fileSize := 4 * c.StripeWidth()
			ok := false
			c.Env.Go("setup", func(p *sim.Proc) {
				content := make([]byte, fileSize)
				rand.New(rand.NewSource(3)).Read(content)
				var err error
				ino, err = admin.Create(p, "f", fileSize)
				if err != nil {
					t.Error(err)
					return
				}
				if err := admin.WriteFile(p, ino, content); err != nil {
					t.Error(err)
					return
				}
				wg := sim.NewWaitGroup(c.Env)
				wg.Add(4)
				for ci := 0; ci < 4; ci++ {
					ci := ci
					cl := c.NewClient()
					c.Env.Go("client", func(cp *sim.Proc) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(100 + ci)))
						for i := 0; i < 80; i++ {
							off := int64(rng.Intn(int(fileSize - 4096)))
							n := 1 + rng.Intn(4096)
							buf := make([]byte, n)
							rng.Read(buf)
							if err := cl.Update(cp, ino, off, buf); err != nil {
								t.Errorf("client %d: %v", ci, err)
								return
							}
						}
					})
				}
				wg.Wait(p)
				if err := c.DrainAll(p, admin); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Scrub(); err != nil {
					t.Error(err)
					return
				}
				ok = true
			})
			c.Env.Run(0)
			c.Env.Close()
			if !ok && !t.Failed() {
				t.Fatal("deadlock")
			}
		})
	}
}

// TestReadYourWritesBeforeDrain: TSUE must serve the newest data from its
// log read cache before any recycle happens.
func TestReadYourWritesBeforeDrain(t *testing.T) {
	cfg := testConfig("tsue")
	cfg.EngineOpts.UnitSize = 1 << 20 // nothing seals during the test
	run(t, cfg, func(p *sim.Proc, c *Cluster, cl *Client) {
		rng := rand.New(rand.NewSource(9))
		fileSize := 2 * c.StripeWidth()
		content := make([]byte, fileSize)
		rng.Read(content)
		ino, _ := cl.Create(p, "f", fileSize)
		if err := cl.WriteFile(p, ino, content); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			off := int64(rng.Intn(int(fileSize - 2048)))
			n := 1 + rng.Intn(2048)
			buf := make([]byte, n)
			rng.Read(buf)
			if err := cl.Update(p, ino, off, buf); err != nil {
				t.Fatal(err)
			}
			copy(content[off:], buf)
			// Immediate read-back of the updated range, no drain.
			got, err := cl.Read(p, ino, off, int64(n))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, buf) {
				t.Fatalf("read-your-writes violated at update %d", i)
			}
		}
		// Whole-file read must also see all updates.
		got, err := cl.Read(p, ino, 0, fileSize)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content) {
			t.Fatal("whole-file read mismatch before drain")
		}
	})
}

// TestRecoveryAllEngines: fail one OSD after a drained update run; the
// reconstructed cluster must scrub clean and serve the exact content.
func TestRecoveryAllEngines(t *testing.T) {
	for _, engine := range update.Names() {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			cfg := testConfig(engine)
			run(t, cfg, func(p *sim.Proc, c *Cluster, cl *Client) {
				rng := rand.New(rand.NewSource(11))
				fileSize := 4 * c.StripeWidth()
				content := make([]byte, fileSize)
				rng.Read(content)
				ino, _ := cl.Create(p, "f", fileSize)
				if err := cl.WriteFile(p, ino, content); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 150; i++ {
					off := int64(rng.Intn(int(fileSize - 4096)))
					n := 1 + rng.Intn(4096)
					buf := make([]byte, n)
					rng.Read(buf)
					if err := cl.Update(p, ino, off, buf); err != nil {
						t.Fatal(err)
					}
					copy(content[off:], buf)
				}
				rep, err := c.Recover(p, wire.NodeID(3), 4, RecoverDrainFirst, cl)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Blocks == 0 {
					t.Fatal("node 3 hosted no blocks?")
				}
				if _, err := c.Scrub(); err != nil {
					t.Fatalf("scrub after recovery: %v", err)
				}
				got, err := cl.Read(p, ino, 0, fileSize)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, content) {
					t.Fatal("content mismatch after recovery")
				}
			})
		})
	}
}

// TestRecoveryReplicaReplayTSUE: fail a node with UNRECYCLED DataLog items;
// the replica replay path must restore full consistency.
func TestRecoveryReplicaReplayTSUE(t *testing.T) {
	cfg := testConfig("tsue")
	cfg.EngineOpts.UnitSize = 1 << 20 // keep items unrecycled at failure
	run(t, cfg, func(p *sim.Proc, c *Cluster, cl *Client) {
		rng := rand.New(rand.NewSource(13))
		fileSize := 4 * c.StripeWidth()
		content := make([]byte, fileSize)
		rng.Read(content)
		ino, _ := cl.Create(p, "f", fileSize)
		if err := cl.WriteFile(p, ino, content); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 120; i++ {
			off := int64(rng.Intn(int(fileSize - 4096)))
			n := 1 + rng.Intn(4096)
			buf := make([]byte, n)
			rng.Read(buf)
			if err := cl.Update(p, ino, off, buf); err != nil {
				t.Fatal(err)
			}
			copy(content[off:], buf)
		}
		// No drain: node 3 dies with a hot DataLog.
		rep, err := c.Recover(p, wire.NodeID(3), 4, RecoverLogReplay, cl)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Scrub(); err != nil {
			t.Fatalf("scrub after replica replay: %v (replayed %d items)", err, rep.ReplayedItems)
		}
		got, err := cl.Read(p, ino, 0, fileSize)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content) {
			t.Fatal("content mismatch after replica replay")
		}
	})
}

func TestLookupMatchesLocalPlacement(t *testing.T) {
	cfg := testConfig("fo")
	run(t, cfg, func(p *sim.Proc, c *Cluster, cl *Client) {
		ino, err := cl.Create(p, "f", 2*c.StripeWidth())
		if err != nil {
			t.Fatal(err)
		}
		got, pg, err := cl.Lookup(p, ino, 1)
		if err != nil {
			t.Fatal(err)
		}
		sid := wire.StripeID{Ino: ino, Stripe: 1}
		want := c.Placement(sid)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("lookup %v != local %v", got, want)
			}
		}
		if int(pg) != c.PG(sid) {
			t.Fatalf("lookup PG %d != local %d", pg, c.PG(sid))
		}
		// PG-level addressing: the MDS-served member set must match the
		// local map, and the stripe's placement must be a rotation of it.
		mem, err := cl.LookupPG(p, pg)
		if err != nil {
			t.Fatal(err)
		}
		inMem := make(map[wire.NodeID]bool)
		for _, id := range mem {
			inMem[id] = true
		}
		for _, id := range want {
			if !inMem[id] {
				t.Fatalf("stripe host %d not in PG %d members %v", id, pg, mem)
			}
		}
		if _, err := cl.LookupPG(p, 1<<30); err == nil {
			t.Fatal("lookup of bogus PG succeeded")
		}
		if _, _, err := cl.Lookup(p, ino, 99); err == nil {
			t.Fatal("lookup of bogus stripe succeeded")
		}
	})
}

func TestHeartbeatLiveness(t *testing.T) {
	cfg := testConfig("fo")
	cfg.HeartbeatInterval = 10 * time.Millisecond
	cfg.HeartbeatTimeout = 50 * time.Millisecond
	c := MustNew(cfg)
	c.Env.Go("observer", func(p *sim.Proc) {
		p.Sleep(100 * time.Millisecond)
		if dead := c.MDS.DeadOSDs(p.Now(), cfg.HeartbeatTimeout); len(dead) != 0 {
			t.Errorf("healthy OSDs reported dead: %v", dead)
		}
		c.Fabric.SetDown(wire.NodeID(2), true)
		p.Sleep(200 * time.Millisecond)
		dead := c.MDS.DeadOSDs(p.Now(), cfg.HeartbeatTimeout)
		if len(dead) != 1 || dead[0] != wire.NodeID(2) {
			t.Errorf("dead set %v, want [2]", dead)
		}
	})
	c.Env.Run(time.Second)
	c.Env.Close()
}

// TestDeterminism: identical seeds must give identical virtual end times
// and identical device stats.
func TestDeterminism(t *testing.T) {
	runOnce := func() (time.Duration, int64) {
		cfg := testConfig("tsue")
		c := MustNew(cfg)
		cl := c.NewClient()
		c.Env.Go("t", func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(21))
			fileSize := 2 * c.StripeWidth()
			content := make([]byte, fileSize)
			rng.Read(content)
			ino, _ := cl.Create(p, "f", fileSize)
			if err := cl.WriteFile(p, ino, content); err != nil {
				t.Error(err)
			}
			for i := 0; i < 100; i++ {
				off := int64(rng.Intn(int(fileSize - 1024)))
				buf := make([]byte, 1+rng.Intn(1024))
				rng.Read(buf)
				if err := cl.Update(p, ino, off, buf); err != nil {
					t.Error(err)
				}
			}
			if err := c.DrainAll(p, cl); err != nil {
				t.Error(err)
			}
		})
		end := c.Env.Run(0)
		ops := c.DeviceStats().WriteOps
		c.Env.Close()
		return end, ops
	}
	e1, o1 := runOnce()
	e2, o2 := runOnce()
	if e1 != e2 || o1 != o2 {
		t.Fatalf("non-deterministic: end %v vs %v, writeOps %d vs %d", e1, e2, o1, o2)
	}
}

// TestMultiNodeFailureRecovery: lose M=2 nodes at once; reconstruction from
// the K survivors must restore exact content.
func TestMultiNodeFailureRecovery(t *testing.T) {
	cfg := testConfig("tsue")
	run(t, cfg, func(p *sim.Proc, c *Cluster, cl *Client) {
		rng := rand.New(rand.NewSource(17))
		fileSize := 4 * c.StripeWidth()
		content := make([]byte, fileSize)
		rng.Read(content)
		ino, _ := cl.Create(p, "f", fileSize)
		if err := cl.WriteFile(p, ino, content); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			off := int64(rng.Intn(int(fileSize - 4096)))
			buf := make([]byte, 1+rng.Intn(4096))
			rng.Read(buf)
			if err := cl.Update(p, ino, off, buf); err != nil {
				t.Fatal(err)
			}
			copy(content[off:], buf)
		}
		// Two sequential single-node recoveries (M=2 tolerates both).
		if _, err := c.Recover(p, wire.NodeID(2), 4, RecoverDrainFirst, cl); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Recover(p, wire.NodeID(5), 4, RecoverDrainFirst, cl); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Scrub(); err != nil {
			t.Fatal(err)
		}
		got, err := cl.Read(p, ino, 0, fileSize)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content) {
			t.Fatal("content mismatch after double failure")
		}
	})
}

// TestRemapRoutesNewTraffic: after recovery, updates and reads to remapped
// blocks must route to the new host and stay consistent.
func TestRemapRoutesNewTraffic(t *testing.T) {
	cfg := testConfig("pl")
	run(t, cfg, func(p *sim.Proc, c *Cluster, cl *Client) {
		rng := rand.New(rand.NewSource(19))
		fileSize := 2 * c.StripeWidth()
		content := make([]byte, fileSize)
		rng.Read(content)
		ino, _ := cl.Create(p, "f", fileSize)
		if err := cl.WriteFile(p, ino, content); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Recover(p, wire.NodeID(4), 4, RecoverDrainFirst, cl); err != nil {
			t.Fatal(err)
		}
		// Keep updating after the failure: the remapped placement serves.
		for i := 0; i < 60; i++ {
			off := int64(rng.Intn(int(fileSize - 2048)))
			buf := make([]byte, 1+rng.Intn(2048))
			rng.Read(buf)
			if err := cl.Update(p, ino, off, buf); err != nil {
				t.Fatal(err)
			}
			copy(content[off:], buf)
		}
		if err := c.DrainAll(p, cl); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Scrub(); err != nil {
			t.Fatal(err)
		}
		got, err := cl.Read(p, ino, 0, fileSize)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content) {
			t.Fatal("post-recovery updates diverged")
		}
	})
}
