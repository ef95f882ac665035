# Writes the build's commit stamp (hima_build_info.h) for the bench JSON
# emitters: the short HEAD commit, with "-dirty" appended when tracked
# files differ from it, or "unknown" outside a git checkout. Runs on
# every build; configure_file rewrites the header only when the stamp
# changes, so an unchanged tree recompiles nothing.
#
#   cmake -DSOURCE_DIR=<repo> -DOUTPUT=<header> -P git_stamp.cmake
execute_process(COMMAND git rev-parse --short HEAD
                WORKING_DIRECTORY ${SOURCE_DIR}
                OUTPUT_VARIABLE HIMA_GIT_SHA
                OUTPUT_STRIP_TRAILING_WHITESPACE
                ERROR_QUIET
                RESULT_VARIABLE result)
if(NOT result EQUAL 0 OR HIMA_GIT_SHA STREQUAL "")
    set(HIMA_GIT_SHA "unknown")
else()
    execute_process(COMMAND git status --porcelain --untracked-files=no
                    WORKING_DIRECTORY ${SOURCE_DIR}
                    OUTPUT_VARIABLE changes
                    ERROR_QUIET
                    RESULT_VARIABLE result)
    if(NOT result EQUAL 0 OR NOT changes STREQUAL "")
        set(HIMA_GIT_SHA "${HIMA_GIT_SHA}-dirty")
    endif()
endif()
configure_file(${SOURCE_DIR}/cmake/build_info.h.in ${OUTPUT} @ONLY)
