package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/cclo"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/mvstore"
	"repro/internal/ring"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/workload"
)

// deployment is a running cluster of one workload, with every metric
// series it serves registered in reg.
type deployment struct {
	reg  *metrics.Registry
	ring ring.Ring
	// open starts a client session homed in dc.
	open  func(dc int, tenant uint16) (caller, error)
	close func()
}

// tenants is how many admission tenants the sessions are spread over.
const tenants = 4

// tracing is what a traced run hands the deployment: the zero-threshold
// slow-op ring every partition server records into, and the span recorder
// the TCP assembly wraps its network and logs with.
type tracing struct {
	slow *metrics.SlowRing
	tr   *tracer
}

func startDeployment(w workloadSpec, seed int64, dataDir string, t tracing) (*deployment, error) {
	switch w.Transport {
	case "local":
		return startLocal(w, seed, t)
	case "tcp":
		return startTCP(w, dataDir, t)
	}
	return nil, fmt.Errorf("workload %s: unknown transport %q", w.Name, w.Transport)
}

func protocolOf(name string) (cluster.Protocol, error) {
	switch name {
	case "contrarian":
		return cluster.Contrarian, nil
	case "cclo":
		return cluster.CCLO, nil
	}
	return 0, fmt.Errorf("unknown protocol %q", name)
}

func workloadConfig(w workloadSpec) workload.Config {
	return workload.Config{
		WriteRatio:       w.WriteRatio,
		RotSize:          w.RotSize,
		ValueSize:        w.ValueSize,
		Zipf:             w.Zipf,
		KeysPerPartition: w.KeysPerPartition,
		Partitions:       w.Partitions,
	}
}

// startLocal runs the workload's cluster on the in-process simulator with
// the default latency model.
func startLocal(w workloadSpec, seed int64, t tracing) (*deployment, error) {
	proto, err := protocolOf(w.Protocol)
	if err != nil {
		return nil, err
	}
	c, err := cluster.Start(cluster.Config{
		Protocol:   proto,
		DCs:        w.DCs,
		Partitions: w.Partitions,
		Seed:       seed,
		Slow:       t.slow,
	})
	if err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	c.RegisterMetrics(reg)
	ks := workload.BuildKeySpace(workloadConfig(w), c.Ring())
	if err := c.Preload(ks.Keys, w.ValueSize); err != nil {
		c.Close()
		return nil, err
	}
	return &deployment{
		reg:  reg,
		ring: c.Ring(),
		open: func(dc int, tenant uint16) (caller, error) {
			cli, err := c.NewSessionClient(dc, tenant)
			if err != nil {
				return nil, err
			}
			return cli, warm(cli)
		},
		close: c.Close,
	}, nil
}

// warm pings every partition of the session's DC until each answers.
func warm(cli any) error {
	w, ok := cli.(interface{ Warm(context.Context) error })
	if !ok {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return w.Warm(ctx)
}

// freeAddr picks a free loopback port below the kernel's ephemeral range
// (32768 and up on Linux). A port taken from that range and released could
// be handed to an outgoing connection before its server listens on it.
func freeAddr() (string, error) {
	for try := 0; try < 100; try++ {
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", 10000+rand.IntN(22000)))
		if err != nil {
			continue
		}
		defer ln.Close()
		return ln.Addr().String(), nil
	}
	return "", errors.New("no free loopback port below 32000")
}

// tcpServer is what the TCP assembly needs of a partition server of either
// family.
type tcpServer interface {
	Start()
	Close() error
	RegisterMetrics(r *metrics.Registry, labels ...metrics.Label)
}

// tcpClient is what the TCP assembly needs of a session client of either
// family, besides the caller surface.
type tcpClient interface {
	caller
	Close() error
	BusyRetries() uint64
}

// startTCP assembles a deployment over loopback TCP in this process from
// the public constructors, as a kvserver per partition (and, for
// Contrarian, per stabilizer) would: one TCP network, an admission gate on
// every partition server, per DC one session mux with a pool of
// w.SocketPool sockets per destination, and a sync-mode WAL per partition
// under dataDir.
func startTCP(w workloadSpec, dataDir string, t tracing) (_ *deployment, err error) {
	if w.Protocol != "contrarian" && w.Protocol != "cclo" {
		return nil, fmt.Errorf("workload %s: the TCP assembly runs contrarian or cclo, not %q", w.Name, w.Protocol)
	}
	dir := map[wire.Addr]string{}
	for dc := 0; dc < w.DCs; dc++ {
		var addrs []wire.Addr
		if w.Protocol == "contrarian" {
			addrs = append(addrs, wire.StabilizerAddr(dc))
		}
		for p := 0; p < w.Partitions; p++ {
			addrs = append(addrs, wire.ServerAddr(dc, p))
		}
		for _, a := range addrs {
			if dir[a], err = freeAddr(); err != nil {
				return nil, err
			}
		}
	}
	tcp := transport.NewTCP(dir)
	var network transport.Network = tcp
	if t.tr != nil {
		network = &tracedNetwork{Network: tcp, tr: t.tr}
	}
	var (
		servers []tcpServer
		stabs   []*core.Stabilizer
		muxes   []transport.Mux
		// mu guards what the admission probe, the scrapes and open share.
		mu          sync.Mutex
		logs        []*wal.Log
		clients     []tcpClient
		ccloClients []*cclo.Client
		nextID      = make([]int, w.DCs)
	)
	shutdown := func() {
		for _, c := range clients {
			c.Close()
		}
		for _, m := range muxes {
			m.Close()
		}
		for _, s := range servers {
			s.Close()
		}
		for _, l := range logs {
			l.Close()
		}
		for _, s := range stabs {
			s.Close()
		}
		tcp.Close()
		os.RemoveAll(dataDir)
	}
	defer func() {
		if err != nil {
			shutdown()
		}
	}()

	tcp.SetAdmission(transport.AdmitConfig{
		Limit:      w.AdmitLimit,
		QueueDepth: tcp.Stats().SendQueue.Load,
		FsyncP99: func() time.Duration {
			mu.Lock()
			defer mu.Unlock()
			var worst time.Duration
			for _, l := range logs {
				worst = max(worst, l.Stats().FsyncDelay.Percentile(99))
			}
			return worst
		},
	})
	reg := metrics.NewRegistry()
	fam := metrics.Label{Name: "family", Value: w.Protocol}
	tcp.Stats().Register(reg)
	tcp.AdmitStats().Register(reg, fam)
	r := ring.New(w.Partitions)
	ks := workload.BuildKeySpace(workloadConfig(w), r)
	val := make([]byte, w.ValueSize)
	for dc := 0; dc < w.DCs; dc++ {
		for p := 0; p < w.Partitions; p++ {
			labels := []metrics.Label{fam, {Name: "dc", Value: strconv.Itoa(dc)}, {Name: "partition", Value: strconv.Itoa(p)}}
			l, err := wal.Open(wal.Options{
				Dir:  filepath.Join(dataDir, fmt.Sprintf("dc%d-p%d", dc, p)),
				Sync: wal.SyncAlways,
			})
			if err != nil {
				return nil, err
			}
			mu.Lock()
			logs = append(logs, l)
			mu.Unlock()
			l.Stats().Register(reg, labels...)
			var durable wal.Durability = l
			if t.tr != nil {
				durable = &tracedWAL{Durability: l, tr: t.tr}
			}
			// Preload writes the replica's store directly, as
			// cluster.Preload does: version ts 1 from DC 0, visible in
			// every snapshot.
			var s tcpServer
			if w.Protocol == "cclo" {
				cs, err := cclo.NewServer(cclo.Config{
					DC: dc, Part: p, NumDCs: w.DCs, NumParts: w.Partitions,
					Durable: durable,
					Slow:    t.slow,
				}, network)
				if err != nil {
					return nil, err
				}
				cs.Preload(ks.Keys[p], val)
				s = cs
			} else {
				cs, err := core.NewServer(core.Config{
					DC: dc, Part: p, NumDCs: w.DCs, NumParts: w.Partitions,
					Clock:   core.ClockHLC,
					Durable: durable,
					Slow:    t.slow,
				}, network)
				if err != nil {
					return nil, err
				}
				dv := vclock.New(w.DCs)
				dv[0] = 1
				for _, k := range ks.Keys[p] {
					cs.Store().Install(k, mvstore.Version{Value: val, TS: 1, DV: dv})
				}
				s = cs
			}
			// Started at once, as a kvserver is: a core server that was
			// never started blocks in Close.
			s.Start()
			servers = append(servers, s)
			s.RegisterMetrics(reg, labels...)
		}
		if w.Protocol == "contrarian" {
			st, err := core.NewStabilizer(dc, w.Partitions, w.DCs, 0, network)
			if err != nil {
				return nil, err
			}
			st.Start()
			stabs = append(stabs, st)
		}
	}

	reg.CounterFunc("kv_admission_client_retries_total",
		"Client-side Busy retries, summed over all sessions.",
		func() float64 {
			mu.Lock()
			defer mu.Unlock()
			var sum uint64
			for _, c := range clients {
				sum += c.BusyRetries()
			}
			return float64(sum)
		}, fam)
	if w.Protocol == "cclo" {
		reg.CounterFunc("kv_cclo_fence_retries_total",
			"Client-side epoch-fence ROT retries, summed over all sessions.",
			func() float64 {
				mu.Lock()
				defer mu.Unlock()
				var sum uint64
				for _, c := range ccloClients {
					sum += c.FenceRetries()
				}
				return float64(sum)
			})
	}
	for dc := 0; dc < w.DCs; dc++ {
		m, err := network.AttachMux(wire.ClientAddr(dc, 0xFFFE), w.SocketPool)
		if err != nil {
			return nil, err
		}
		muxes = append(muxes, m)
	}
	return &deployment{
		reg:  reg,
		ring: r,
		open: func(dc int, tenant uint16) (caller, error) {
			mu.Lock()
			nextID[dc]++
			id := nextID[dc]
			mu.Unlock()
			sess := wire.MakeSession(tenant, uint16(id))
			var cli tcpClient
			if w.Protocol == "cclo" {
				c, err := cclo.NewSessionClient(cclo.ClientConfig{DC: dc, ID: id, Ring: r}, muxes[dc], sess)
				if err != nil {
					return nil, err
				}
				mu.Lock()
				ccloClients = append(ccloClients, c)
				mu.Unlock()
				cli = c
			} else {
				c, err := core.NewSessionClient(core.ClientConfig{
					DC: dc, ID: id, NumDCs: w.DCs, Ring: r, Mode: core.OneAndHalfRounds,
				}, muxes[dc], sess)
				if err != nil {
					return nil, err
				}
				cli = c
			}
			mu.Lock()
			clients = append(clients, cli)
			mu.Unlock()
			return cli, warm(cli)
		},
		close: shutdown,
	}, nil
}
