# Generate a suite to a file, then audit it: every synthesized test must
# report as minimal (0 not-minimal).
execute_process(
    COMMAND ${LTSGEN} synth --model=tso --max-size=4
            --out=${WORKDIR}/roundtrip.litmus
    RESULT_VARIABLE gen_result)
if(NOT gen_result EQUAL 0)
    message(FATAL_ERROR "ltsgen generation failed: ${gen_result}")
endif()
execute_process(
    COMMAND ${LTSGEN} audit --model=tso --in=${WORKDIR}/roundtrip.litmus
    OUTPUT_VARIABLE audit_output
    RESULT_VARIABLE audit_result)
if(NOT audit_result EQUAL 0)
    message(FATAL_ERROR "ltsgen audit failed: ${audit_result}")
endif()
if(NOT audit_output MATCHES "0/[0-9]+ tests are not minimally")
    message(FATAL_ERROR "audit found non-minimal tests:\n${audit_output}")
endif()

# The same audit under --strict must still exit 0 (all minimal)...
execute_process(
    COMMAND ${LTSGEN} audit --model=tso --in=${WORKDIR}/roundtrip.litmus
            --strict
    OUTPUT_VARIABLE strict_output
    RESULT_VARIABLE strict_result)
if(NOT strict_result EQUAL 0)
    message(FATAL_ERROR
            "strict audit of a minimal suite exited ${strict_result}:\n"
            "${strict_output}")
endif()

# ...while a test whose fence is redundant must exit 2 (not-minimal),
# and one with three SC fences must exit 3 (unsupported, which takes
# precedence over any not-minimal verdict in the same suite).
file(WRITE ${WORKDIR}/notminimal.litmus
"LTS redundant-fence
thread 0: St [m0] ; Fence ; Ld r0 = [m0]
forbidden: init 2
end
")
execute_process(
    COMMAND ${LTSGEN} audit --model=tso --in=${WORKDIR}/notminimal.litmus
            --strict
    OUTPUT_QUIET
    RESULT_VARIABLE notmin_result)
if(NOT notmin_result EQUAL 2)
    message(FATAL_ERROR
            "strict audit of a not-minimal test exited ${notmin_result}, "
            "expected 2")
endif()
file(WRITE ${WORKDIR}/unsupported.litmus
"LTS redundant-fence
thread 0: St [m0] ; Fence ; Ld r0 = [m0]
forbidden: init 2
end

LTS three-sc
thread 0: Fence.sc ; Ld r0 = [m0] ; Fence.sc
thread 1: St [m0] ; Fence.sc
forbidden: init 1
end
")
execute_process(
    COMMAND ${LTSGEN} audit --model=scc --in=${WORKDIR}/unsupported.litmus
            --strict
    OUTPUT_QUIET
    RESULT_VARIABLE unsup_result)
if(NOT unsup_result EQUAL 3)
    message(FATAL_ERROR
            "strict audit of an unsupported test exited ${unsup_result}, "
            "expected 3")
endif()
