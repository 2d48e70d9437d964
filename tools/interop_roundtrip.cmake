# Interop round trip: synthesize a suite, export it as herd7 .litmus
# files, re-import the directory, and demand the interchange forms agree
# byte for byte. Then compile one emitted C++11 stress harness and run
# it: the forbidden outcome must not be observed (exit 0).

execute_process(
    COMMAND ${LTSGEN} synth --model=tso --max-size=4
            --out=${WORKDIR}/interop_orig.litmus
            --emit-litmus=${WORKDIR}/interop_lit
            --emit-cxx=${WORKDIR}/interop_cxx
    RESULT_VARIABLE gen_result)
if(NOT gen_result EQUAL 0)
    message(FATAL_ERROR "ltsgen emission failed: ${gen_result}")
endif()
if(NOT EXISTS ${WORKDIR}/interop_lit/@all)
    message(FATAL_ERROR "--emit-litmus wrote no @all index")
endif()

execute_process(
    COMMAND ${LTSGEN} import --in=${WORKDIR}/interop_lit
            --out=${WORKDIR}/interop_back.litmus
    RESULT_VARIABLE import_result)
if(NOT import_result EQUAL 0)
    message(FATAL_ERROR "ltsgen import failed: ${import_result}")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORKDIR}/interop_orig.litmus ${WORKDIR}/interop_back.litmus
    RESULT_VARIABLE diff_result)
if(NOT diff_result EQUAL 0)
    message(FATAL_ERROR
            "export -> import round trip is not byte-identical")
endif()

# The exported .litmus directory must also audit clean as-is (format
# auto-detection: herd files, not interchange).
execute_process(
    COMMAND ${LTSGEN} audit --model=tso --in=${WORKDIR}/interop_lit
            --strict
    OUTPUT_QUIET
    RESULT_VARIABLE audit_result)
if(NOT audit_result EQUAL 0)
    message(FATAL_ERROR
            "strict audit of exported .litmus files exited ${audit_result}")
endif()

# Build and run one harness. Any test works; pick the first index entry.
file(STRINGS ${WORKDIR}/interop_cxx/@all harness_files LIMIT_COUNT 1)
execute_process(
    COMMAND ${CXX} -std=c++11 -O2 -pthread
            -o ${WORKDIR}/interop_harness
            ${WORKDIR}/interop_cxx/${harness_files}
    RESULT_VARIABLE cc_result
    ERROR_VARIABLE cc_errors)
if(NOT cc_result EQUAL 0)
    message(FATAL_ERROR "harness compilation failed:\n${cc_errors}")
endif()
execute_process(
    COMMAND ${WORKDIR}/interop_harness 2000
    OUTPUT_QUIET
    RESULT_VARIABLE run_result)
if(NOT run_result EQUAL 0)
    message(FATAL_ERROR
            "harness observed the forbidden outcome (exit ${run_result})")
endif()
