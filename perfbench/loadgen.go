package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// lateAfter is how far behind its due time the generator may hand a request
// off before the request counts as sent late.
const lateAfter = time.Millisecond

// shot is the timeline of one open-loop request: when it was due, when the
// generator handed it to a connection's queue, and when its answer arrived.
type shot struct {
	due, dispatched, done time.Time
	ok                    bool
}

// dueAt is the open-loop schedule: request i is due i/rate seconds after
// start, whether or not earlier requests have been answered.
func dueAt(start time.Time, rate float64, i int) time.Time {
	return start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
}

// openLoop sends n requests on the dueAt schedule over conns connections.
// A single generator goroutine, locked to its OS thread, sleeps until each
// request is due and queues it; conns senders each take the next queued
// request, call send with their connection's index and wait for its answer. A stalled system
// therefore delays the requests queued behind it, and loadStats charges
// that wait to them by timing each request from its due time.
func openLoop(start time.Time, rate float64, n, conns int, send func(conn, i int) bool) []shot {
	shots := make([]shot, n)
	// Sized to every request of the run, so the generator never blocks on
	// a slow sender and its own lateness stays separate from the system's.
	queue := make(chan int, n)
	var wg sync.WaitGroup
	wg.Add(conns)
	for c := 0; c < conns; c++ {
		go func() {
			defer wg.Done()
			for i := range queue {
				ok := send(c, i)
				shots[i].done = time.Now()
				shots[i].ok = ok
			}
		}()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := 0; i < n; i++ {
		due := dueAt(start, rate, i)
		sleepUntil(due)
		shots[i].due = due
		shots[i].dispatched = time.Now()
		queue <- i
	}
	close(queue)
	wg.Wait()
	return shots
}

// sleepUntil blocks the calling OS thread until t with nanosleep. The Go
// runtime's own timers wake an otherwise idle process in whole
// milliseconds: with time.Sleep the generator handed the median request
// off 0.6 ms after its due time at 1000 req/s, and requests reached the
// server in bursts set by the runtime's timer rather than the schedule.
// Nanosleep on a thread of its own hands the median request off about
// 0.1 ms late.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		// An interrupted sleep (EINTR) goes round the loop again.
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// loadStats summarizes an open-loop phase.
type loadStats struct {
	// latMS holds the latency of every request, in milliseconds from its
	// due time, ascending. A request that failed or was refused misses
	// every latency limit: it is charged the whole phase, from the first
	// due time to the last answer.
	latMS []float64
	// failed counts the requests that failed or were refused.
	failed int
	// lateMaxMS is the generator's worst lateness, and lateFrac the share
	// of requests it handed off more than lateAfter after their due time.
	lateMaxMS, lateFrac float64
}

// summarize computes the phase statistics of the request timelines.
func summarize(shots []shot) loadStats {
	var st loadStats
	var phase time.Duration
	for _, s := range shots {
		phase = max(phase, s.done.Sub(shots[0].due))
	}
	late := 0
	for _, s := range shots {
		l := s.dispatched.Sub(s.due)
		if ms := float64(l) / 1e6; ms > st.lateMaxMS {
			st.lateMaxMS = ms
		}
		if l > lateAfter {
			late++
		}
		lat := s.done.Sub(s.due)
		if !s.ok {
			st.failed++
			lat = phase
		}
		st.latMS = append(st.latMS, float64(lat)/1e6)
	}
	st.latMS = sortedCopy(st.latMS)
	st.lateFrac = ratio(float64(late), float64(len(shots)))
	return st
}
