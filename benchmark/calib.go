package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// calibRefS is what the calibration kernel reads on the two-core
// reference box when nothing else disturbs it. A pass's slowdown is its
// reading divided by this.
const calibRefS = 0.150

// calibrator times a fixed kernel that uses none of the repository's
// code, so that a run can tell a slow machine from slow code. The
// reference box shares its memory system with neighbours: for minutes
// at a time everything on it, CPU time for identical work included,
// runs 20–40 % slower, which no amount of repetition inside a run
// averages away. The kernel does the same work every time — a dependent
// pointer chase through 8 MB, a byte-wise hash, a sort, and a 32 MB
// copy, because the slow episodes hit memory-bound code much harder
// than arithmetic — one copy per processor at once, and a reading is
// the wall time until the last copy ends. The benchmark divides each
// pass's timings by the readings taken around it (see endToEnd).
//
// The buffers are mapped outside the Go heap: 150 MB of live heap would
// double the collector's target and change the program under test.
type calibrator struct {
	lanes  []*calibLane
	mapped [][]byte
}

type calibLane struct {
	next     []uint32 // one cycle through every slot
	text     []byte
	keys     []uint64
	sorted   []uint64
	src, dst []uint64
	sink     uint64 // keeps the kernel's results alive
}

const (
	calibChase  = 1 << 21 // uint32 slots: 8 MB, past the private caches
	calibSteps  = 1 << 19
	calibText   = 1 << 22
	calibKeys   = 1 << 17
	calibStream = 1 << 22 // uint64 per side: 32 MB, past the shared cache
)

func newCalibrator() (*calibrator, error) {
	c := &calibrator{}
	const laneBytes = 8*(2*calibKeys+2*calibStream) + 4*calibChase + calibText
	for l := 0; l < runtime.GOMAXPROCS(0); l++ {
		b, err := syscall.Mmap(-1, 0, laneBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("calibrator: mmap %d bytes: %w", laneBytes, err)
		}
		c.mapped = append(c.mapped, b)
		words := func(n int) []uint64 { // carves n uint64 off the front of b
			w := unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
			b = b[8*n:]
			return w
		}
		ln := &calibLane{keys: words(calibKeys), sorted: words(calibKeys), src: words(calibStream), dst: words(calibStream)}
		ln.next = unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), calibChase)
		ln.text = b[4*calibChase:]
		ln.fill(uint64(l))
		c.lanes = append(c.lanes, ln)
	}
	return c, nil
}

// fill writes the lane's fixed inputs, touching every page.
func (ln *calibLane) fill(lane uint64) {
	x := 0x9e3779b97f4a7c15 + lane
	rnd := func() uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range ln.next {
		ln.next[i] = uint32(i)
	}
	for i := len(ln.next) - 1; i > 0; i-- { // Sattolo: a single cycle
		j := int(rnd() % uint64(i))
		ln.next[i], ln.next[j] = ln.next[j], ln.next[i]
	}
	for i := range ln.text {
		ln.text[i] = byte(rnd())
	}
	for i := range ln.keys {
		ln.keys[i] = rnd()
	}
	for i := range ln.src {
		ln.src[i] = uint64(i)
		ln.dst[i] = 0
	}
}

func (ln *calibLane) run() {
	p := uint32(0)
	for i := 0; i < calibSteps; i++ {
		p = ln.next[p]
	}
	h := uint64(14695981039346656037)
	for rep := 0; rep < 8; rep++ {
		for _, b := range ln.text {
			h = (h ^ uint64(b)) * 1099511628211
		}
	}
	for rep := 0; rep < 4; rep++ {
		copy(ln.sorted, ln.keys)
		slices.Sort(ln.sorted)
	}
	for rep := 0; rep < 6; rep++ {
		copy(ln.dst, ln.src)
	}
	ln.sink = uint64(p) + h + ln.sorted[0] + ln.dst[len(ln.dst)-1]
}

// read runs the kernel once on every lane at once and returns the wall
// seconds until the last one ends.
func (c *calibrator) read() float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, ln := range c.lanes {
		wg.Add(1)
		go func(ln *calibLane) {
			defer wg.Done()
			ln.run()
		}(ln)
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

// close unmaps the buffers.
func (c *calibrator) close() {
	for _, b := range c.mapped {
		_ = syscall.Munmap(b) // nothing to do about a failed unmap of scratch memory
	}
	c.mapped, c.lanes = nil, nil
}
