package main

import (
	"runtime"
	"syscall"
)

// heapAfterGC returns the bytes of live heap objects. Two collections: the
// first may only finish a cycle already under way, and sync.Pool contents
// survive one.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func cpuMicros() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // Getrusage(RUSAGE_SELF) cannot fail with a valid pointer
	}
	us := func(tv syscall.Timeval) float64 { return float64(tv.Sec)*1e6 + float64(tv.Usec) }
	return us(ru.Utime) + us(ru.Stime)
}

// procMeter accumulates process usage over the timed regions of a run.
type procMeter struct {
	total procUsage
	cpu0  float64
	ms0   runtime.MemStats
}

func (p *procMeter) start() {
	runtime.ReadMemStats(&p.ms0)
	p.cpu0 = cpuMicros()
}

func (p *procMeter) stop() {
	cpu := cpuMicros()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.total.cpuUS += cpu - p.cpu0
	p.total.mallocs += ms.Mallocs - p.ms0.Mallocs
	p.total.gcCycles += ms.NumGC - p.ms0.NumGC
	p.total.heapSys = max(p.total.heapSys, ms.HeapSys)
}
