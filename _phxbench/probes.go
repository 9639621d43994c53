package main

import (
	"math/rand"
	"time"

	"phoenix/internal/mem"
)

// Probe sizes: enough calls that one probe takes tens of milliseconds, so a
// timer tick is noise, without lengthening a run noticeably.
const (
	probeReads     = 1 << 18
	probeChecksums = 1 << 13
)

// probeSink keeps the probed results live so the calls cannot be dropped.
var probeSink uint64

// probeMem times AddressSpace.ReadU64 and AddressSpace.PageChecksum over the
// resident pages of a workload's final address space. The addresses are
// drawn from the seed before the timer starts. They split a workload's host
// time into memory-layer cost without instrumenting the program.
func probeMem(e *epoch, tr *tracer, as *mem.AddressSpace, seed int64) {
	var pages []mem.PageNum
	for _, m := range as.Mappings() {
		first := mem.PageOf(m.Start)
		for i := 0; i < m.Pages; i++ {
			if pg := first + mem.PageNum(i); as.PageResident(pg) {
				pages = append(pages, pg)
			}
		}
	}
	e.layer["mem.resident_pages"] = float64(as.ResidentPages())
	if len(pages) == 0 {
		return
	}
	rng := rand.New(rand.NewSource(seed))
	addrs := make([]mem.VAddr, probeReads)
	for i := range addrs {
		pg := pages[rng.Intn(len(pages))]
		addrs[i] = mem.VAddr(pg)<<mem.PageShift + mem.VAddr(rng.Intn(mem.PageSize/8)*8)
	}

	var sum uint64
	tr.begin("mem.read_u64_probe", 0)
	start := time.Now()
	for _, a := range addrs {
		sum += as.ReadU64(a)
	}
	readNs := time.Since(start).Nanoseconds()
	tr.end()

	tr.begin("mem.checksum_page_probe", 0)
	start = time.Now()
	for i := 0; i < probeChecksums; i++ {
		sum += as.PageChecksum(pages[i%len(pages)])
	}
	sumNs := time.Since(start).Nanoseconds()
	tr.end()
	probeSink += sum

	e.layer["mem.read_u64_host_ns"] = float64(readNs) / probeReads
	e.layer["mem.checksum_page_host_ns"] = float64(sumNs) / probeChecksums
}
