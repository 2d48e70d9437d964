# Cold-vs-warm `ltsgen synth` through the suite store: the second query
# of the same (model, bound, options) must be answered entirely from the
# store (cache: hit) with a byte-identical suite (same digest), and the
# store itself must pass a read-only fsck and a compaction. The summary
# lines (suite:, cache:, shards:) go to stderr.
set(STORE ${WORKDIR}/query-store)
file(REMOVE_RECURSE ${STORE})

execute_process(
    COMMAND ${LTSGEN} synth --model=tso --max-size=3 --store=${STORE}
            --out=${WORKDIR}/query-cold.litmus
    ERROR_VARIABLE cold_output
    RESULT_VARIABLE cold_result)
if(NOT cold_result EQUAL 0)
    message(FATAL_ERROR "cold query failed: ${cold_result}\n${cold_output}")
endif()
if(NOT cold_output MATCHES "cache: miss")
    message(FATAL_ERROR "cold query was not a miss:\n${cold_output}")
endif()
string(REGEX MATCH "suite: [^\n]+" cold_digest "${cold_output}")

execute_process(
    COMMAND ${LTSGEN} synth --model=tso --max-size=3 --store=${STORE}
            --out=${WORKDIR}/query-warm.litmus
    ERROR_VARIABLE warm_output
    RESULT_VARIABLE warm_result)
if(NOT warm_result EQUAL 0)
    message(FATAL_ERROR "warm query failed: ${warm_result}\n${warm_output}")
endif()
if(NOT warm_output MATCHES "cache: hit")
    message(FATAL_ERROR "warm query was not a hit:\n${warm_output}")
endif()
string(REGEX MATCH "suite: [^\n]+" warm_digest "${warm_output}")

if(NOT cold_digest STREQUAL warm_digest)
    message(FATAL_ERROR
            "warm digest differs from cold:\n"
            "cold: ${cold_digest}\nwarm: ${warm_digest}")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORKDIR}/query-cold.litmus ${WORKDIR}/query-warm.litmus
    RESULT_VARIABLE diff_result)
if(NOT diff_result EQUAL 0)
    message(FATAL_ERROR "warm suite bytes differ from cold suite bytes")
endif()

# The store the queries left behind must be internally consistent...
execute_process(
    COMMAND ${LTSSTORE} fsck ${STORE}
    OUTPUT_VARIABLE fsck_output
    RESULT_VARIABLE fsck_result)
if(NOT fsck_result EQUAL 0)
    message(FATAL_ERROR "lts-store fsck failed:\n${fsck_output}")
endif()

# ...and still answer hits after a compaction.
execute_process(
    COMMAND ${LTSSTORE} compact ${STORE}
    RESULT_VARIABLE compact_result)
if(NOT compact_result EQUAL 0)
    message(FATAL_ERROR "lts-store compact failed: ${compact_result}")
endif()
execute_process(
    COMMAND ${LTSGEN} synth --model=tso --max-size=3 --store=${STORE}
    OUTPUT_QUIET
    ERROR_VARIABLE post_output
    RESULT_VARIABLE post_result)
if(NOT post_result EQUAL 0)
    message(FATAL_ERROR "post-compact query failed: ${post_result}")
endif()
if(NOT post_output MATCHES "cache: hit")
    message(FATAL_ERROR "post-compact query was not a hit:\n${post_output}")
endif()
string(REGEX MATCH "suite: [^\n]+" post_digest "${post_output}")
if(NOT post_digest STREQUAL cold_digest)
    message(FATAL_ERROR
            "post-compact digest differs:\n"
            "cold: ${cold_digest}\npost: ${post_digest}")
endif()
