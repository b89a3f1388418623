# Fails when a source under DIR uses host threading. A machine dispatches its
# simulated CPUs one turn at a time on one host thread, so the Cache Kernel
# needs no locks or atomics; host parallelism lives only in the cluster
# driver (src/sim/cluster.h), one machine per host thread at a time.
#
#   cmake -DDIR=<source dir> -P check_no_host_threads.cmake

file(GLOB_RECURSE sources "${DIR}/*.h" "${DIR}/*.cc")
if(NOT sources)
  message(FATAL_ERROR "no sources under '${DIR}'")
endif()
set(pattern
    "#include <(thread|mutex|shared_mutex|condition_variable|atomic|future|semaphore|barrier|latch)>|std::(j?thread|mutex|condition_variable|atomic|async)")
foreach(source IN LISTS sources)
  file(STRINGS "${source}" hits REGEX "${pattern}")
  if(hits)
    message(SEND_ERROR "${source}: ${hits}")
  endif()
endforeach()
