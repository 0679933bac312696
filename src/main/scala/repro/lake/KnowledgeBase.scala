package repro.lake

import repro.util.Norm

/** Synthetic knowledge base standing in for the YAGO KB used by SANTOS [7]
  * and for the facts GPT-3 "knows" in the query-table generator (Fig 5).
  *
  * It maps normalized string values to semantic types (city, country,
  * vaccine, agency, ...) and records a few curated fact tables — including
  * the exact COVID-19 country statistics shown in the paper's Fig 5.
  */
object KnowledgeBase {

  /** Countries (superset of everything appearing in the paper's figures). */
  val countries: Vector[String] = Vector(
    "Germany", "England", "Spain", "Canada", "Mexico", "USA", "India",
    "Brazil", "Russia", "France", "Italy", "Portugal", "Netherlands",
    "Belgium", "Austria", "Switzerland", "Poland", "Sweden", "Norway",
    "Denmark", "Finland", "Greece", "Turkey", "Egypt", "Nigeria",
    "Kenya", "South Africa", "China", "Japan", "South Korea", "Vietnam",
    "Thailand", "Indonesia", "Australia", "New Zealand", "Argentina",
    "Chile", "Peru", "Colombia", "Ireland",
  )

  /** city -> country. Cities from the paper's figures plus filler. */
  val cityCountry: Vector[(String, String)] = Vector(
    "Berlin" -> "Germany", "Manchester" -> "England", "Barcelona" -> "Spain",
    "Toronto" -> "Canada", "Mexico City" -> "Mexico", "Boston" -> "USA",
    "New Delhi" -> "India", "Munich" -> "Germany", "Hamburg" -> "Germany",
    "London" -> "England", "Liverpool" -> "England", "Madrid" -> "Spain",
    "Valencia" -> "Spain", "Vancouver" -> "Canada", "Montreal" -> "Canada",
    "Guadalajara" -> "Mexico", "Chicago" -> "USA", "Houston" -> "USA",
    "Mumbai" -> "India", "Paris" -> "France", "Lyon" -> "France",
    "Rome" -> "Italy", "Milan" -> "Italy", "Lisbon" -> "Portugal",
    "Amsterdam" -> "Netherlands", "Brussels" -> "Belgium",
    "Vienna" -> "Austria", "Zurich" -> "Switzerland", "Warsaw" -> "Poland",
    "Stockholm" -> "Sweden", "Oslo" -> "Norway", "Copenhagen" -> "Denmark",
    "Helsinki" -> "Finland", "Athens" -> "Greece", "Istanbul" -> "Turkey",
    "Cairo" -> "Egypt", "Lagos" -> "Nigeria", "Nairobi" -> "Kenya",
    "Cape Town" -> "South Africa", "Beijing" -> "China", "Tokyo" -> "Japan",
    "Seoul" -> "South Korea", "Hanoi" -> "Vietnam", "Bangkok" -> "Thailand",
    "Jakarta" -> "Indonesia", "Sydney" -> "Australia",
    "Auckland" -> "New Zealand", "Buenos Aires" -> "Argentina",
    "Santiago" -> "Chile", "Lima" -> "Peru", "Bogota" -> "Colombia",
    "Dublin" -> "Ireland", "Cork" -> "Ireland", "Leeds" -> "England",
    "Seville" -> "Spain", "Ottawa" -> "Canada", "Phoenix" -> "USA",
    "Denver" -> "USA", "Kolkata" -> "India", "Marseille" -> "France",
  )

  val cities: Vector[String] = cityCountry.map(_._1)

  /** Vaccine canonical name -> spelling variants seen across tables. */
  val vaccineVariants: Map[String, Vector[String]] = Map(
    "Pfizer"      -> Vector("Pfizer", "Pfizer-BioNTech", "BNT162b2"),
    "J&J"         -> Vector("J&J", "JnJ", "Johnson & Johnson", "Janssen"),
    "Moderna"     -> Vector("Moderna", "mRNA-1273"),
    "AstraZeneca" -> Vector("AstraZeneca", "AZ", "Vaxzevria"),
    "Sputnik V"   -> Vector("Sputnik V", "Sputnik"),
    "Sinovac"     -> Vector("Sinovac", "CoronaVac"),
    "Novavax"     -> Vector("Novavax", "NVX-CoV2373"),
    "Covaxin"     -> Vector("Covaxin", "BBV152"),
  )

  val vaccines: Vector[String] = vaccineVariants.keys.toVector.sorted

  /** Regulatory agencies and their home country. */
  val agencyCountry: Vector[(String, String)] = Vector(
    "FDA" -> "USA", "EMA" -> "Germany", "MHRA" -> "England",
    "Health Canada" -> "Canada", "COFEPRIS" -> "Mexico", "CDSCO" -> "India",
    "ANVISA" -> "Brazil", "TGA" -> "Australia", "PMDA" -> "Japan",
    "Swissmedic" -> "Switzerland",
  )

  val agencies: Vector[String] = agencyCountry.map(_._1)

  /** Country spelling variants (for ER and Fig 7/8 style tables). */
  val countryVariants: Map[String, Vector[String]] = Map(
    "USA"     -> Vector("USA", "United States", "United States of America", "US"),
    "England" -> Vector("England", "UK", "United Kingdom"),
    "Germany" -> Vector("Germany", "Deutschland"),
    "Russia"  -> Vector("Russia", "Russian Federation"),
  )

  /** The exact rows of the paper's Fig 5 (country, cases, deaths,
    * recovered, active). Active is stored literally — the paper's Russia
    * row is NOT cases − deaths − recovered, so it cannot be derived.
    */
  val fig5CovidStats: Vector[(String, Long, Long, Long, Long)] = Vector(
    ("USA",    5742812L, 178701L, 2633567L, 2930544L),
    ("Brazil", 3713876L, 116476L, 2788841L,  808559L),
    ("India",  3444061L,  61529L, 2643788L,  738744L),
    ("Russia",  982822L,  16841L,  745930L,  219051L),
    ("Mexico",  704016L,  73814L,  442309L,  187893L),
  )

  /** Deterministic synthetic COVID stats for every other country, so the
    * generator can answer prompts that ask for more than 5 rows.
    */
  def covidStats(country: String): (String, Long, Long, Long, Long) =
    fig5CovidStats.find(_._1 == country).getOrElse {
      val h = math.abs(country.hashCode.toLong)
      // Below the smallest Fig 5 row (Mexico, 704016) so the paper's five
      // countries always rank first in "top countries by cases".
      val cases = 50000L + h % 600000L
      val deaths = cases / (20L + h % 30L)
      val recovered = (cases * (55L + h % 30L)) / 100L
      (country, cases, deaths, recovered, cases - deaths - recovered)
    }

  /** value (normalized) -> semantic type. This is the SANTOS KB stand-in. */
  lazy val valueType: Map[String, String] = {
    val b = Map.newBuilder[String, String]
    for (c <- cities) b += Norm.basic(c) -> "city"
    for (c <- countries) b += Norm.basic(c) -> "country"
    for ((canon, vs) <- countryVariants; v <- vs) b += Norm.basic(v) -> "country"
    for ((canon, vs) <- vaccineVariants; v <- vs) b += Norm.basic(v) -> "vaccine"
    for (a <- agencies) b += Norm.basic(a) -> "agency"
    b.result()
  }
}
