//go:build unix

package numa

import "syscall"

// osMap returns n bytes of anonymous private memory: the kernel zero-fills a
// page on its first touch and an untouched page costs nothing.
func osMap(n int) ([]byte, error) {
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

func osUnmap(mem []byte) error { return syscall.Munmap(mem) }
