# Fails when a source file or doc cites a Markdown file that does not
# exist. Scans every file under src/, bench/, tests/ and docs/, plus
# README.md, for path tokens ending in the Markdown extension. A token
# resolves when it names an existing file relative to the repository
# root or to the citing file's directory, or when it is a bare file name
# (a Markdown link label, say) that matches some Markdown file in the
# repository.
#
# Usage: cmake -DKMEANSLL_ROOT=<repo root> -P tests/doc_refs_check.cmake

if(NOT KMEANSLL_ROOT)
  message(FATAL_ERROR "pass -DKMEANSLL_ROOT=<repository root>")
endif()
set(root "${KMEANSLL_ROOT}")

file(GLOB_RECURSE scanned LIST_DIRECTORIES false
     "${root}/src/*" "${root}/bench/*" "${root}/tests/*" "${root}/docs/*")
list(APPEND scanned "${root}/README.md")

# File names of every Markdown file in the tree, for resolving bare
# file names.
file(GLOB_RECURSE all_md LIST_DIRECTORIES false "${root}/*.md")
set(md_names "")
foreach(md IN LISTS all_md)
  get_filename_component(md_name "${md}" NAME)
  list(APPEND md_names "${md_name}")
endforeach()

set(dangling "")
set(checked 0)
foreach(path IN LISTS scanned)
  file(READ "${path}" content)
  # List separators and brackets would split or merge the matched tokens.
  string(REGEX REPLACE "[][;]" " " content "${content}")
  # The trailing character keeps longer extensions from matching; it is
  # stripped below.
  string(REGEX MATCHALL "[A-Za-z0-9_./-]+\\.md[^A-Za-z0-9_]" tokens
         "${content}")
  get_filename_component(dir "${path}" DIRECTORY)
  file(RELATIVE_PATH rel_path "${root}" "${path}")
  foreach(token IN LISTS tokens)
    string(REGEX REPLACE ".$" "" ref "${token}")
    if(ref MATCHES "//")  # part of a URL, not a repository path
      continue()
    endif()
    math(EXPR checked "${checked} + 1")
    if(EXISTS "${root}/${ref}" OR EXISTS "${dir}/${ref}")
      continue()
    endif()
    list(FIND md_names "${ref}" bare_match)
    if(ref MATCHES "/" OR bare_match EQUAL -1)
      list(APPEND dangling "${rel_path}: ${ref}")
    endif()
  endforeach()
endforeach()

if(dangling)
  list(REMOVE_DUPLICATES dangling)
  list(JOIN dangling "\n  " report)
  message(FATAL_ERROR "citations of missing Markdown files:\n  ${report}")
endif()
message(STATUS "doc_refs_check: ${checked} Markdown citations resolve")
