/* LD_PRELOAD sampling profiler: SIGPROF on process CPU time, one
 * backtrace() per tick, everything dumped when the process exits.
 *
 *   cc -O2 -fPIC -shared -o sigprof.so shim.c
 *   SIGPROF_OUT=run.prof LD_PRELOAD=./sigprof.so <binary> <args>
 *
 * The dump is /proc/self/maps, a line "STACKS", then one sample per line:
 * space-separated hex return addresses, innermost first. resolve.py turns
 * it into tables. The timer asks for a tick every 1003 us of CPU time (off
 * the beat of any 1 kHz timer in the program under test); the kernel rounds
 * that up to its own tick, so the delivered rate is the kernel's.
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>

#define MAX_SAMPLES 65536
#define MAX_DEPTH 48
#define INTERVAL_US 1003

static void *stacks[MAX_SAMPLES][MAX_DEPTH];
static int depths[MAX_SAMPLES];
static int taken;

static void on_tick(int sig) {
    (void)sig;
    /* Any thread may take the tick: claim a row first. */
    int i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        depths[i] = backtrace(stacks[i], MAX_DEPTH);
}

static void stop_and_dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SIGPROF_OUT");
    FILE *out = fopen(path ? path : "sigprof.out", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[4096];
    while (fgets(line, sizeof line, maps))
        fputs(line, out);
    fclose(maps);
    fputs("STACKS\n", out);
    int n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (int i = 0; i < n; i++) {
        for (int d = 0; d < depths[i]; d++)
            fprintf(out, "%lx ", (unsigned long)stacks[i][d]);
        fputc('\n', out);
    }
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    /* The first backtrace() loads libgcc's unwinder (malloc, dlopen):
     * do that here, not inside the signal handler. */
    void *warm[4];
    backtrace(warm, 4);

    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_handler = on_tick;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, INTERVAL_US}, {0, INTERVAL_US}};
    setitimer(ITIMER_PROF, &every, NULL);
    atexit(stop_and_dump);
}
