/* LD_PRELOAD live-heap census: every block the program holds, with the
 * stack that allocated it, dumped each time the live heap climbs to a
 * threshold; the dump file holds the last such crossing.
 *
 *   cc -O2 -fPIC -shared -o heapshim.so heapshim.c
 *   LD_PRELOAD=./heapshim.so <binary> <args>            # prints the peak
 *   HEAP_THRESH=<bytes> HEAP_OUT=run.heap LD_PRELOAD=./heapshim.so <binary> <args>
 *
 * malloc, calloc, realloc, free and posix_memalign are interposed over glibc's __libc_* entry points (so nothing is looked up
 * with dlsym, which allocates). Live blocks sit in a fixed open-addressing
 * table keyed by address, each with its size and a backtrace(); a
 * per-thread guard lets the allocations backtrace() itself makes pass
 * through untracked. The dump is /proc/self/maps, a line "BLOCKS", then one
 * live block per line: its size, then space-separated hex return addresses,
 * innermost first. `resolve.py --heap` turns it into a table. At exit the
 * peak of live bytes goes to stderr: run once for it, then again with
 * HEAP_THRESH just below it to see what the peak consists of. The shim
 * re-arms once the live heap falls back below the threshold, so a phase
 * that reaches it after an earlier one did (a timed loop after its set-up)
 * overwrites the earlier dump.
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void *__libc_memalign(size_t, size_t);
extern void __libc_free(void *);

#define SLOTS (1u << 20) /* live blocks tracked at once, a power of two */
#define DEPTH 20

struct block {
    void *at; /* NULL: empty slot */
    size_t size;
    int depth;
    void *stack[DEPTH];
};

static struct block table[SLOTS];
static size_t live_bytes, live_blocks, peak_bytes, peak_blocks, thresh;
/* dumped: 0 never, 1 at or above the threshold since the last dump, 2
 * fallen back below it since (armed again). */
static int ready, dumped, lock;
/* initial-exec: a preloaded library's TLS is allocated at start-up, so
 * reading the guard never allocates. */
static __thread int busy __attribute__((tls_model("initial-exec")));

static unsigned slot_of(void *p) {
    return (unsigned)(((uintptr_t)p >> 4) * 0x9E3779B97F4A7C15ull >> 40) & (SLOTS - 1);
}

static void dump(void) {
    const char *path = getenv("HEAP_OUT");
    FILE *out = fopen(path ? path : "heapshim.out", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[4096];
    while (fgets(line, sizeof line, maps))
        fputs(line, out);
    fclose(maps);
    fputs("BLOCKS\n", out);
    for (unsigned i = 0; i < SLOTS; i++) {
        if (!table[i].at)
            continue;
        fprintf(out, "%zu", table[i].size);
        for (int d = 0; d < table[i].depth; d++)
            fprintf(out, " %lx", (unsigned long)table[i].stack[d]);
        fputc('\n', out);
    }
    fclose(out);
}

/* Records `p` (`size` bytes) as live, or forgets it when `size` is 0. */
static void track(void *p, size_t size) {
    if (!p || !ready || busy)
        return;
    busy = 1;
    struct block fresh = {p, size, 0, {0}};
    if (size)
        fresh.depth = backtrace(fresh.stack, DEPTH);
    while (__atomic_test_and_set(&lock, __ATOMIC_ACQUIRE))
        ;
    unsigned i = slot_of(p);
    while (table[i].at && table[i].at != p)
        i = (i + 1) & (SLOTS - 1);
    if (size && live_blocks < SLOTS / 2) {
        if (table[i].at) { /* its free went by untracked */
            live_bytes -= table[i].size;
            live_blocks--;
        }
        table[i] = fresh;
        live_bytes += size;
        live_blocks++;
        if (live_bytes > peak_bytes) {
            peak_bytes = live_bytes;
            peak_blocks = live_blocks;
        }
        if (thresh && dumped != 1 && live_bytes >= thresh) {
            dumped = 1;
            dump();
        }
    } else if (!size && table[i].at) {
        live_bytes -= table[i].size;
        live_blocks--;
        /* Backward-shift deletion keeps every probe sequence unbroken. */
        for (unsigned j = (i + 1) & (SLOTS - 1); table[j].at; j = (j + 1) & (SLOTS - 1)) {
            unsigned home = slot_of(table[j].at);
            if (((j - home) & (SLOTS - 1)) >= ((j - i) & (SLOTS - 1))) {
                table[i] = table[j];
                i = j;
            }
        }
        table[i].at = NULL;
        if (dumped == 1 && live_bytes < thresh)
            dumped = 2;
    }
    __atomic_clear(&lock, __ATOMIC_RELEASE);
    busy = 0;
}

/* A zero-byte block is live too, and `track` reads size 0 as "forget". */
static size_t counted(size_t n) {
    return n ? n : 1;
}

void *malloc(size_t n) {
    void *p = __libc_malloc(n);
    track(p, counted(n));
    return p;
}

void *calloc(size_t k, size_t n) {
    void *p = __libc_calloc(k, n);
    track(p, counted(k * n));
    return p;
}

void *realloc(void *old, size_t n) {
    track(old, 0);
    void *p = __libc_realloc(old, n);
    track(p, n);
    return p;
}

void free(void *p) {
    track(p, 0);
    __libc_free(p);
}

int posix_memalign(void **out, size_t align, size_t n) {
    *out = __libc_memalign(align, n);
    track(*out, counted(n));
    return *out ? 0 : 12 /* ENOMEM */;
}

static void report(void) {
    ready = 0;
    fprintf(stderr, "heapshim: peak %zu live bytes in %zu blocks%s\n", peak_bytes, peak_blocks,
            thresh && !dumped ? " (HEAP_THRESH never reached: nothing dumped)" : "");
}

__attribute__((constructor)) static void start(void) {
    /* The first backtrace() loads libgcc's unwinder: do that untracked. */
    void *warm[4];
    backtrace(warm, 4);
    const char *t = getenv("HEAP_THRESH");
    thresh = t ? strtoull(t, NULL, 10) : 0;
    atexit(report);
    ready = 1;
}
