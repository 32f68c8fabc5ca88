package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/ginja-dr/ginja/internal/obs"
	"github.com/ginja-dr/ginja/internal/vfs"
)

// live is the one walk that decides what in the bucket still matters: the
// objects a recovery to upTo (-1 = no bound) applies, in order (Algorithm
// 1's Recovery mode). Recover, RecoverAt, Verify and every Follower poll
// restore it, CloudView.supersede stamps what live(-1) leaves out
// (Algorithm 3 lines 23–29), and the checkpointer takes its chain tip from
// it. From a view snapshot (dbs in (Ts, Gen) order, wals in Ts order), among
// the DB objects at or before upTo it takes:
//
//  1. the newest dump, the chain's root;
//  2. the chain, walked back from its newest element to the root: a dump
//     has no base, a delta's base is explicit (`.b`), and a delta is on
//     the chain only if its base is;
//  3. the checkpoints after the newest chain element — which recaptured
//     every range dirtied before it — up to the first object that is not
//     one (an off-chain delta, which they build on);
//  4. the WAL objects with consecutive timestamps from the newest planned
//     DB object's Ts + 1. A gap (an object lost mid-upload) ends the run,
//     which bounds data loss to S; stopping at upTo makes RecoverAt(ts)
//     the exact prefix ≤ ts.
//
// No qualifying dump is ErrNoDump.
func live(dbs []DBObjectInfo, wals []WALObjectInfo, upTo int64) (db []DBObjectInfo, run []WALObjectInfo, err error) {
	within := func(ts int64) bool { return upTo < 0 || ts <= upTo }
	dbs = dbs[:sort.Search(len(dbs), func(i int) bool { return !within(dbs[i].Ts) })]
	root := -1
	for i, d := range dbs {
		if d.Type == Dump {
			root = i
		}
	}
	if root < 0 {
		if upTo < 0 {
			return nil, nil, ErrNoDump
		}
		return nil, nil, fmt.Errorf("core: no dump at or before ts %d (outside the retention window): %w", upTo, ErrNoDump)
	}
	chain := map[dbKey]int{{dbs[root].Ts, dbs[root].Gen}: root}
	tip := root
	for i := root + 1; i < len(dbs); i++ {
		d := dbs[i]
		if _, ok := chain[dbKey{d.BaseTs, d.BaseGen}]; ok && d.Type == Delta {
			chain[dbKey{d.Ts, d.Gen}], tip = i, i
		}
	}
	for i := tip; i > root; i = chain[dbKey{dbs[i].BaseTs, dbs[i].BaseGen}] {
		db = append(db, dbs[i])
	}
	db = append(db, dbs[root])
	slices.Reverse(db)
	for _, d := range dbs[tip+1:] {
		if d.Type != Checkpoint {
			break
		}
		db = append(db, d)
	}
	from := db[len(db)-1].Ts + 1
	i := sort.Search(len(wals), func(i int) bool { return wals[i].Ts >= from })
	j := i
	for j < len(wals) && wals[j].Ts == from+int64(j-i) && within(wals[j].Ts) {
		j++
	}
	return db, wals[i:j], nil
}

// planNames flattens a plan into the names a restore fetches, in apply
// order: every name, DB part or WAL object alike, is one envelope (so a
// whole-file head chunk truncates before its continuation chunks append).
func planNames(db []DBObjectInfo, run []WALObjectInfo) []string {
	var names []string
	for _, d := range db {
		names = append(names, d.PartNames()...)
	}
	for _, w := range run {
		names = append(names, w.Name())
	}
	return names
}

// RecoveryBreakdown is the machine-readable RTO budget of one recovery:
// how long each phase of Algorithm 1's Recovery mode took, in the clock
// the instance runs on (wall in production, virtual under simulation).
// It is produced by Recover, RecoverAt and Promote, surfaced via Stats.LastRecovery,
// exported per phase as the ginja_recovery_phase_seconds histogram, and
// recorded as "recovery:<phase>" spans on /tracez.
type RecoveryBreakdown struct {
	// Mode is "recover" (Recover: restore and resume replication),
	// "recover_at" (RecoverAt: point-in-time restore onto a target FS),
	// "verify" (Verify's rebuild into its scratch target) or "promote"
	// (Follower.Promote's final catch-up).
	Mode string
	// DumpTs is the timestamp of the dump generation restored from.
	DumpTs int64
	// List is the cloud LIST that discovers the surviving objects.
	List time.Duration
	// ViewBuild reconstructs the CloudView from the listing.
	ViewBuild time.Duration
	// Fetch is the cumulative GET time across the parallel prefetchers
	// (retries included). With RecoveryFetchers > 1 this exceeds the
	// elapsed fetch window — it measures cloud work, not wall time.
	Fetch time.Duration
	// Decode is unsealing (decrypt/decompress) plus write-list decoding,
	// accumulated on the strictly-ordered apply path.
	Decode time.Duration
	// Apply is replaying the decoded writes onto the target file system.
	Apply time.Duration
	// Verify is the post-restore pass over the target: every restored
	// file is enumerated and stat-ed so a recovery that silently dropped
	// a file fails here, not when the DBMS first touches it.
	Verify time.Duration
	// Total is end-to-end Recover/RecoverAt duration (elapsed, not the sum
	// of the phases: Fetch overlaps Decode/Apply by design).
	Total time.Duration
	// Objects is how many cloud objects the restore plan contained
	// (DB object parts plus WAL objects); WALObjects counts the WAL
	// portion, i.e. the consecutive-timestamp run replayed after the
	// newest checkpoint. Bytes is the sealed payload fetched.
	Objects    int
	WALObjects int
	Bytes      int64
	// VerifiedFiles and VerifiedBytes summarize the verify pass.
	VerifiedFiles int
	VerifiedBytes int64
}

// observeRecovery exports one finished recovery into the registry — a
// per-phase histogram series (label phase=list|view|fetch|decode|apply|
// verify|total) plus "recovery:<phase>" spans correlated by the dump
// timestamp — and is a no-op without a registry, so sim-driven recoveries
// (no metrics attached) still produce the breakdown itself for free.
func observeRecovery(reg *obs.Registry, bd *RecoveryBreakdown, started time.Time) {
	if reg == nil {
		return
	}
	phases := []struct {
		name string
		d    time.Duration
	}{
		{"list", bd.List},
		{"view", bd.ViewBuild},
		{"fetch", bd.Fetch},
		{"decode", bd.Decode},
		{"apply", bd.Apply},
		{"verify", bd.Verify},
		{"total", bd.Total},
	}
	spans := reg.Spans()
	for _, ph := range phases {
		reg.Histogram(metricRecoveryPhase,
			"Recovery (RTO) duration by phase in seconds; phase=total is end-to-end, fetch is cumulative across parallel prefetchers.",
			obs.Labels{"phase": ph.name}, nil).ObserveDuration(ph.d)
		spans.Record(obs.Span{
			Name: "recovery:" + ph.name, ID: bd.DumpTs, Extra: int64(bd.Objects),
			Start: started, Duration: ph.d,
		})
	}
}

// verifyRestore is the recovery verify phase: enumerate the restored tree
// and stat every file, counting what survived. It catches a restore that
// dropped or truncated files to zero-visibility (unreadable entries) at
// recovery time rather than at first DBMS access.
func verifyRestore(target vfs.FS) (files int, bytes int64, err error) {
	paths, err := vfs.Walk(target, "")
	if err != nil {
		return 0, 0, err
	}
	for _, p := range paths {
		info, err := target.Stat(p)
		if err != nil {
			return files, bytes, err
		}
		files++
		bytes += info.Size()
	}
	return files, bytes, nil
}
