// Command recipesrv serves a RECIPE-converted ordered index over TCP
// with the internal/server wire protocol: GET/SET/DEL/SCAN/UPDATE plus
// INFO/STATS and per-connection pipelining. Writes are point writes
// through the sharded front-end: a reply leaves only after the index
// call that fenced its write has returned.
//
// Usage:
//
//	go run ./cmd/recipesrv -addr :6399 -index P-ART -shards 8
//	go run ./cmd/recipesrv -partition range
//
// SIGTERM/SIGINT triggers a graceful drain: no new connections, every
// write accepted before the drain began is fenced and acknowledged,
// then the process exits 0. The simulated heaps do not outlive the
// process, so there is nothing to recover at start-up.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/core"
	"repro/internal/keys"
	"repro/internal/pmem"
	"repro/internal/server"
	"repro/shard"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:6399", "TCP listen address")
		index     = flag.String("index", "P-ART", "ordered index to serve (see -list)")
		list      = flag.Bool("list", false, "list available indexes and exit")
		shards    = flag.Int("shards", 4, "shards in the front-end")
		partition = flag.String("partition", "hash", `key partitioner: "hash" or "range"`)
	)
	flag.Parse()
	if *list {
		for _, n := range core.OrderedNames {
			fmt.Println(n)
		}
		return
	}

	part, ok := shard.ByName(*partition)
	if !ok {
		fatalf("unknown partitioner %q (want hash or range)", *partition)
	}
	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "recipesrv: -shards must be >= 1, got %d\n", *shards)
		os.Exit(2)
	}

	m, err := shard.NewOrdered(*index, keys.YCSBString, shard.Options{
		Shards:      *shards,
		Partitioner: part,
		Heap:        pmem.Options{Track: true},
	})
	fatalIf(err)
	defer m.Release()

	srv := server.New(m, server.Options{IndexName: *index})

	l, err := net.Listen("tcp", *addr)
	fatalIf(err)
	// The CI smoke greps for this line before launching the load.
	fmt.Printf("recipesrv: listening on %s (index=%s shards=%d)\n", l.Addr(), *index, m.NumShards())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		s := <-sig
		fmt.Printf("recipesrv: %v, draining\n", s)
		srv.Shutdown()
	}()

	if err := srv.Serve(l); err != nil {
		fatalf("server failed: %v", err)
	}
	fmt.Println("recipesrv: drained cleanly")
}

func fatalIf(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "recipesrv: "+format+"\n", args...)
	os.Exit(1)
}
