package simds

import (
	"slices"

	"phoenix/internal/mem"
)

// Blob layout: [u32 length][payload bytes]. Blobs are the unit of string and
// value storage inside simulated memory.
const blobHdr = 4

// NewBlob allocates a blob holding data and returns its address.
func (c *Ctx) NewBlob(data []byte) mem.VAddr {
	p := c.mustAlloc(blobHdr + len(data))
	c.AS.WriteU32(p, uint32(len(data)))
	if len(data) > 0 {
		c.AS.WriteAt(p+blobHdr, data)
	}
	return p
}

// BlobLen returns the blob's payload length.
func (c *Ctx) BlobLen(p mem.VAddr) int {
	return int(c.AS.ReadU32(p))
}

// BlobBytes returns a copy of the blob's payload.
func (c *Ctx) BlobBytes(p mem.VAddr) []byte {
	n := c.BlobLen(p)
	return c.AS.ReadBytes(p+blobHdr, n)
}

// AppendBlob appends the blob's payload to dst and returns the extended
// slice: BlobBytes without the intermediate copy.
func (c *Ctx) AppendBlob(dst []byte, p mem.VAddr) []byte {
	n := c.BlobLen(p)
	dst = slices.Grow(dst, n)
	c.AS.ReadAt(p+blobHdr, dst[len(dst):len(dst)+n])
	return dst[:len(dst)+n]
}

// BlobEqual reports whether the blob's payload equals data without copying.
func (c *Ctx) BlobEqual(p mem.VAddr, data []byte) bool {
	if c.BlobLen(p) != len(data) {
		return false
	}
	// Compare in bounded chunks to avoid large temporary copies.
	const chunk = 256
	var buf [chunk]byte
	off := 0
	for off < len(data) {
		n := len(data) - off
		if n > chunk {
			n = chunk
		}
		c.AS.ReadAt(p+blobHdr+mem.VAddr(off), buf[:n])
		for i := 0; i < n; i++ {
			if buf[i] != data[off+i] {
				return false
			}
		}
		off += n
	}
	return true
}

// BlobSet overwrites the blob's payload in place. The new data must fit the
// allocation's usable size; otherwise the caller should allocate a new blob.
// It reports whether the write fit.
func (c *Ctx) BlobSet(p mem.VAddr, data []byte) bool {
	if blobHdr+len(data) > c.Heap.UsableSize(p) {
		return false
	}
	c.AS.WriteU32(p, uint32(len(data)))
	if len(data) > 0 {
		c.AS.WriteAt(p+blobHdr, data)
	}
	return true
}

// FreeBlob releases the blob.
func (c *Ctx) FreeBlob(p mem.VAddr) { c.Heap.Free(p) }

// CompareBlobKey compares the blob's payload with key lexicographically,
// returning -1, 0, or 1 (blob < key, ==, >).
func (c *Ctx) CompareBlobKey(p mem.VAddr, key []byte) int {
	bl := c.BlobLen(p)
	n := bl
	if len(key) < n {
		n = len(key)
	}
	const chunk = 256
	var buf [chunk]byte
	off := 0
	for off < n {
		cnt := n - off
		if cnt > chunk {
			cnt = chunk
		}
		c.AS.ReadAt(p+blobHdr+mem.VAddr(off), buf[:cnt])
		for i := 0; i < cnt; i++ {
			if buf[i] != key[off+i] {
				if buf[i] < key[off+i] {
					return -1
				}
				return 1
			}
		}
		off += cnt
	}
	switch {
	case bl < len(key):
		return -1
	case bl > len(key):
		return 1
	}
	return 0
}
