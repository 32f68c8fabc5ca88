package simclock

import (
	"container/heap"
	"time"
)

// heapTimer is the one timer both heap-backed clocks (SimClock, Wheel)
// hand out. A channel timer delivers on ch; a func timer (ch nil) runs fn
// on whichever goroutine fires its clock's timers. Stop and Reset go back
// to the owning clock, which holds the lock guarding the heap.
type heapTimer struct {
	owner interface {
		arm(t *heapTimer, d time.Duration) bool
		disarm(t *heapTimer) bool
	}
	deadline time.Time
	seq      uint64 // arming order breaks deadline ties deterministically
	idx      int    // heap index, -1 when not scheduled
	fn       func()
	ch       chan time.Time
}

func (t *heapTimer) C() <-chan time.Time        { return t.ch }
func (t *heapTimer) Stop() bool                 { return t.owner.disarm(t) }
func (t *heapTimer) Reset(d time.Duration) bool { return t.owner.arm(t, d) }

// fire delivers the timer: a func timer runs inline; a channel timer gets
// a non-blocking send of now, which under a SimClock s wakes (and grants a
// token to) whoever is parked on the channel. A fire nobody is parked on
// grants nothing, so a timer stopped or abandoned with its value unconsumed
// leaves no token behind.
func (t *heapTimer) fire(now time.Time, s *SimClock) {
	if t.fn != nil {
		t.fn()
		return
	}
	if s != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		defer s.wakeAllLocked(chanKey(t.ch)) // after the send, under the lock
	}
	select {
	case t.ch <- now:
	default:
	}
}

// timerQueue is a (deadline, seq) min-heap of timers. The owning clock
// serializes every call under its own mutex.
type timerQueue struct {
	h   timerHeap
	seq uint64
}

// set (re)schedules t for deadline, reporting whether it was pending.
func (q *timerQueue) set(t *heapTimer, deadline time.Time) bool {
	active := q.remove(t)
	t.deadline = deadline
	q.seq++
	t.seq = q.seq
	heap.Push(&q.h, t)
	return active
}

// remove unschedules t, reporting whether it was pending.
func (q *timerQueue) remove(t *heapTimer) bool {
	if t.idx < 0 {
		return false
	}
	heap.Remove(&q.h, t.idx)
	return true
}

// peek returns the earliest pending timer, or nil.
func (q *timerQueue) peek() *heapTimer {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}

func (q *timerQueue) pop() *heapTimer { return heap.Pop(&q.h).(*heapTimer) }

type timerHeap []*heapTimer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if !h[i].deadline.Equal(h[j].deadline) {
		return h[i].deadline.Before(h[j].deadline)
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *timerHeap) Push(x any) {
	t := x.(*heapTimer)
	t.idx = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.idx = -1
	*h = old[:n-1]
	return t
}
