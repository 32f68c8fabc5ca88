// Command cloudsim serves an S3-style object store over HTTP, backed by a
// local directory, optionally behind the WAN latency model — a stand-in
// for Amazon S3 that cmd/ginja can point at with -cloud http://... The
// modelled latency is slept in full on the wall clock.
//
// Usage:
//
//	cloudsim -addr :9000 -dir ./bucket [-wan] [-failure 0.01]
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"

	"github.com/ginja-dr/ginja/internal/cloud"
	cs "github.com/ginja-dr/ginja/internal/cloud/cloudsim"
	"github.com/ginja-dr/ginja/internal/cloud/s3http"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cloudsim:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":9000", "listen address")
	dir := flag.String("dir", "./cloudsim-bucket", "backing directory")
	wan := flag.Bool("wan", false, "simulate WAN latency (the paper's Lisbon → S3 profile)")
	failure := flag.Float64("failure", 0, "transient failure probability (0..1)")
	token := flag.String("token", "", "require this bearer token on every request")
	flag.Parse()

	disk, err := cloud.NewDiskStore(*dir)
	if err != nil {
		return err
	}
	var store cloud.ObjectStore = disk
	if *wan || *failure > 0 {
		store = cs.New(disk, cs.Options{
			Profile:     profileFor(*wan),
			FailureRate: *failure,
		})
	}
	fmt.Printf("cloudsim: serving %s on %s (wan=%v, failure=%.2f, auth=%v)\n",
		*dir, *addr, *wan, *failure, *token != "")
	return http.ListenAndServe(*addr, s3http.NewHandlerWithToken(store, *token))
}

func profileFor(wan bool) cs.Profile {
	if wan {
		return cs.WANProfile()
	}
	return cs.LANProfile()
}
