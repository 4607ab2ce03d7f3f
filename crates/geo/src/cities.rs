//! Embedded world-city database.
//!
//! iGreedy geolocates each enumerated anycast site to the most populous city
//! inside the site's feasibility disk. The original tool ships a "ground
//! truth" city file derived from GeoNames; we embed a curated subset of ~250
//! of the world's largest and most network-relevant cities (every Vultr,
//! major IXP, and hypergiant PoP metro is present) with approximate metro
//! populations. Coordinates are accurate to roughly city-centre precision,
//! which is far below the resolution of latency-based geolocation.

use serde::{Deserialize, Serialize};

use crate::coord::{Coord, Disk};
use crate::EARTH_RADIUS_KM;

/// Index of a city within the [`CityDb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CityId(pub u16);

/// A city record: name, ISO country code, location, and metro population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct City {
    /// City name (ASCII, unique within the database).
    pub name: &'static str,
    /// ISO 3166-1 alpha-2 country code.
    pub country: &'static str,
    /// City-centre coordinate.
    pub coord: Coord,
    /// Approximate metro population, used as the geolocation prior.
    pub population: u64,
}

/// Raw rows: (name, country, lat, lon, population).
#[rustfmt::skip]
const RAW: &[(&str, &str, f64, f64, u64)] = &[
    // --- Europe ---
    ("Amsterdam", "NL", 52.37, 4.90, 2_480_000),
    ("London", "GB", 51.51, -0.13, 14_800_000),
    ("Manchester", "GB", 53.48, -2.24, 2_790_000),
    ("Birmingham", "GB", 52.48, -1.90, 2_920_000),
    ("Edinburgh", "GB", 55.95, -3.19, 900_000),
    ("Dublin", "IE", 53.35, -6.26, 1_460_000),
    ("Paris", "FR", 48.86, 2.35, 11_200_000),
    ("Marseille", "FR", 43.30, 5.37, 1_880_000),
    ("Lyon", "FR", 45.76, 4.84, 1_740_000),
    ("Frankfurt", "DE", 50.11, 8.68, 2_700_000),
    ("Berlin", "DE", 52.52, 13.40, 4_470_000),
    ("Munich", "DE", 48.14, 11.58, 2_980_000),
    ("Hamburg", "DE", 53.55, 9.99, 2_480_000),
    ("Dusseldorf", "DE", 51.23, 6.78, 1_560_000),
    ("Madrid", "ES", 40.42, -3.70, 6_980_000),
    ("Barcelona", "ES", 41.39, 2.17, 5_690_000),
    ("Lisbon", "PT", 38.72, -9.14, 3_020_000),
    ("Rome", "IT", 41.90, 12.50, 4_340_000),
    ("Milan", "IT", 45.46, 9.19, 4_340_000),
    ("Turin", "IT", 45.07, 7.69, 1_790_000),
    ("Zurich", "CH", 47.37, 8.54, 1_420_000),
    ("Geneva", "CH", 46.20, 6.14, 640_000),
    ("Vienna", "AT", 48.21, 16.37, 2_180_000),
    ("Prague", "CZ", 50.08, 14.44, 1_380_000),
    ("Bratislava", "SK", 48.15, 17.11, 660_000),
    ("Budapest", "HU", 47.50, 19.04, 1_780_000),
    ("Warsaw", "PL", 52.23, 21.01, 1_800_000),
    ("Krakow", "PL", 50.06, 19.94, 780_000),
    ("Brussels", "BE", 50.85, 4.35, 2_120_000),
    ("Luxembourg", "LU", 49.61, 6.13, 660_000),
    ("Stockholm", "SE", 59.33, 18.07, 1_680_000),
    ("Gothenburg", "SE", 57.71, 11.97, 610_000),
    ("Oslo", "NO", 59.91, 10.75, 1_070_000),
    ("Copenhagen", "DK", 55.68, 12.57, 1_370_000),
    ("Helsinki", "FI", 60.17, 24.94, 1_310_000),
    ("Reykjavik", "IS", 64.15, -21.94, 240_000),
    ("Athens", "GR", 37.98, 23.73, 3_150_000),
    ("Sofia", "BG", 42.70, 23.32, 1_290_000),
    ("Bucharest", "RO", 44.43, 26.10, 1_830_000),
    ("Belgrade", "RS", 44.79, 20.45, 1_390_000),
    ("Zagreb", "HR", 45.81, 15.98, 810_000),
    ("Ljubljana", "SI", 46.06, 14.51, 290_000),
    ("Kyiv", "UA", 50.45, 30.52, 2_970_000),
    ("Lviv", "UA", 49.84, 24.03, 720_000),
    ("Moscow", "RU", 55.76, 37.62, 12_680_000),
    ("Saint Petersburg", "RU", 59.93, 30.34, 5_600_000),
    ("Istanbul", "TR", 41.01, 28.98, 15_850_000),
    ("Ankara", "TR", 39.93, 32.86, 5_750_000),
    ("Riga", "LV", 56.95, 24.11, 610_000),
    ("Vilnius", "LT", 54.69, 25.28, 590_000),
    ("Tallinn", "EE", 59.44, 24.75, 450_000),
    ("Porto", "PT", 41.15, -8.61, 1_740_000),
    ("Valencia", "ES", 39.47, -0.38, 1_590_000),
    ("Rotterdam", "NL", 51.92, 4.48, 1_010_000),
    ("Antwerp", "BE", 51.22, 4.40, 530_000),
    // --- North America ---
    ("New York", "US", 40.71, -74.01, 19_500_000),
    ("Newark", "US", 40.74, -74.17, 2_400_000),
    ("Boston", "US", 42.36, -71.06, 4_900_000),
    ("Philadelphia", "US", 39.95, -75.17, 6_240_000),
    ("Washington", "US", 38.91, -77.04, 6_370_000),
    ("Ashburn", "US", 39.04, -77.49, 420_000),
    ("Atlanta", "US", 33.75, -84.39, 6_090_000),
    ("Miami", "US", 25.76, -80.19, 6_140_000),
    ("Tampa", "US", 27.95, -82.46, 3_180_000),
    ("Orlando", "US", 28.54, -81.38, 2_690_000),
    ("Charlotte", "US", 35.23, -80.84, 2_670_000),
    ("Chicago", "US", 41.88, -87.63, 9_620_000),
    ("Detroit", "US", 42.33, -83.05, 4_390_000),
    ("Minneapolis", "US", 44.98, -93.27, 3_690_000),
    ("St Louis", "US", 38.63, -90.20, 2_820_000),
    ("Kansas City", "US", 39.10, -94.58, 2_190_000),
    ("Dallas", "US", 32.78, -96.80, 7_640_000),
    ("Houston", "US", 29.76, -95.37, 7_120_000),
    ("Austin", "US", 30.27, -97.74, 2_300_000),
    ("San Antonio", "US", 29.42, -98.49, 2_560_000),
    ("Denver", "US", 39.74, -104.99, 2_960_000),
    ("Salt Lake City", "US", 40.76, -111.89, 1_260_000),
    ("Phoenix", "US", 33.45, -112.07, 4_950_000),
    ("Las Vegas", "US", 36.17, -115.14, 2_290_000),
    ("Los Angeles", "US", 34.05, -118.24, 13_200_000),
    ("San Diego", "US", 32.72, -117.16, 3_290_000),
    ("San Jose", "US", 37.34, -121.89, 2_000_000),
    ("San Francisco", "US", 37.77, -122.42, 4_730_000),
    ("Sacramento", "US", 38.58, -121.49, 2_400_000),
    ("Portland", "US", 45.52, -122.68, 2_510_000),
    ("Seattle", "US", 47.61, -122.33, 4_020_000),
    ("Honolulu", "US", 21.31, -157.86, 1_020_000),
    ("Anchorage", "US", 61.22, -149.90, 400_000),
    ("Pittsburgh", "US", 40.44, -80.00, 2_350_000),
    ("Cleveland", "US", 41.50, -81.69, 2_080_000),
    ("Columbus", "US", 39.96, -83.00, 2_140_000),
    ("Indianapolis", "US", 39.77, -86.16, 2_110_000),
    ("Nashville", "US", 36.16, -86.78, 2_010_000),
    ("Raleigh", "US", 35.78, -78.64, 1_450_000),
    ("Jacksonville", "US", 30.33, -81.66, 1_600_000),
    ("New Orleans", "US", 29.95, -90.07, 1_270_000),
    ("Oklahoma City", "US", 35.47, -97.52, 1_420_000),
    ("Albuquerque", "US", 35.08, -106.65, 920_000),
    ("Boise", "US", 43.62, -116.20, 770_000),
    ("Omaha", "US", 41.26, -95.93, 970_000),
    ("Memphis", "US", 35.15, -90.05, 1_340_000),
    ("Buffalo", "US", 42.89, -78.88, 1_160_000),
    ("Toronto", "CA", 43.65, -79.38, 6_370_000),
    ("Montreal", "CA", 45.50, -73.57, 4_290_000),
    ("Vancouver", "CA", 49.28, -123.12, 2_640_000),
    ("Calgary", "CA", 51.05, -114.07, 1_480_000),
    ("Ottawa", "CA", 45.42, -75.70, 1_480_000),
    ("Winnipeg", "CA", 49.90, -97.14, 830_000),
    ("Halifax", "CA", 44.65, -63.58, 440_000),
    ("Mexico City", "MX", 19.43, -99.13, 22_280_000),
    ("Guadalajara", "MX", 20.67, -103.35, 5_330_000),
    ("Monterrey", "MX", 25.69, -100.32, 5_340_000),
    ("Queretaro", "MX", 20.59, -100.39, 1_590_000),
    ("Guatemala City", "GT", 14.63, -90.51, 3_160_000),
    ("San Juan", "PR", 18.47, -66.11, 2_450_000),
    ("Panama City", "PA", 8.98, -79.52, 2_010_000),
    ("San Jose CR", "CR", 9.93, -84.08, 1_460_000),
    ("Havana", "CU", 23.11, -82.37, 2_140_000),
    ("Kingston", "JM", 18.02, -76.80, 1_240_000),
    // --- South America ---
    ("Sao Paulo", "BR", -23.55, -46.63, 22_620_000),
    ("Rio de Janeiro", "BR", -22.91, -43.17, 13_730_000),
    ("Brasilia", "BR", -15.79, -47.88, 4_870_000),
    ("Fortaleza", "BR", -3.73, -38.52, 4_260_000),
    ("Porto Alegre", "BR", -30.03, -51.22, 4_240_000),
    ("Curitiba", "BR", -25.43, -49.27, 3_830_000),
    ("Salvador", "BR", -12.97, -38.50, 3_960_000),
    ("Recife", "BR", -8.05, -34.88, 4_230_000),
    ("Belo Horizonte", "BR", -19.92, -43.94, 6_140_000),
    ("Buenos Aires", "AR", -34.60, -58.38, 15_370_000),
    ("Cordoba", "AR", -31.42, -64.18, 1_610_000),
    ("Santiago", "CL", -33.45, -70.67, 6_900_000),
    ("Lima", "PE", -12.05, -77.04, 11_040_000),
    ("Bogota", "CO", 4.71, -74.07, 11_340_000),
    ("Medellin", "CO", 6.25, -75.56, 4_100_000),
    ("Quito", "EC", -0.18, -78.47, 1_940_000),
    ("Guayaquil", "EC", -2.17, -79.92, 3_090_000),
    ("Caracas", "VE", 10.49, -66.88, 2_950_000),
    ("Montevideo", "UY", -34.90, -56.19, 1_770_000),
    ("Asuncion", "PY", -25.26, -57.58, 3_450_000),
    ("La Paz", "BO", -16.49, -68.12, 1_940_000),
    // --- Africa ---
    ("Johannesburg", "ZA", -26.20, 28.04, 10_110_000),
    ("Cape Town", "ZA", -33.92, 18.42, 4_890_000),
    ("Durban", "ZA", -29.86, 31.03, 3_230_000),
    ("Lagos", "NG", 6.52, 3.38, 15_950_000),
    ("Abuja", "NG", 9.07, 7.40, 3_840_000),
    ("Accra", "GH", 5.60, -0.19, 2_660_000),
    ("Nairobi", "KE", -1.29, 36.82, 5_120_000),
    ("Mombasa", "KE", -4.04, 39.66, 1_440_000),
    ("Cairo", "EG", 30.04, 31.24, 22_180_000),
    ("Alexandria", "EG", 31.20, 29.92, 5_590_000),
    ("Casablanca", "MA", 33.57, -7.59, 3_840_000),
    ("Tunis", "TN", 36.81, 10.18, 2_440_000),
    ("Algiers", "DZ", 36.75, 3.06, 2_850_000),
    ("Addis Ababa", "ET", 9.01, 38.75, 5_230_000),
    ("Dar es Salaam", "TZ", -6.79, 39.21, 7_400_000),
    ("Kampala", "UG", 0.35, 32.58, 3_650_000),
    ("Kigali", "RW", -1.94, 30.06, 1_210_000),
    ("Dakar", "SN", 14.72, -17.47, 3_330_000),
    ("Abidjan", "CI", 5.36, -4.01, 5_520_000),
    ("Kinshasa", "CD", -4.44, 15.27, 16_320_000),
    ("Luanda", "AO", -8.84, 13.23, 9_050_000),
    ("Maputo", "MZ", -25.97, 32.57, 1_800_000),
    ("Harare", "ZW", -17.83, 31.05, 2_150_000),
    ("Lusaka", "ZM", -15.39, 28.32, 3_040_000),
    ("Gaborone", "BW", -24.63, 25.92, 270_000),
    ("Mauritius", "MU", -20.16, 57.50, 1_270_000),
    // --- Middle East ---
    ("Tel Aviv", "IL", 32.07, 34.78, 4_420_000),
    ("Jerusalem", "IL", 31.77, 35.22, 1_160_000),
    ("Dubai", "AE", 25.20, 55.27, 3_610_000),
    ("Abu Dhabi", "AE", 24.45, 54.38, 1_540_000),
    ("Doha", "QA", 25.29, 51.53, 2_380_000),
    ("Riyadh", "SA", 24.71, 46.68, 7_680_000),
    ("Jeddah", "SA", 21.49, 39.19, 4_780_000),
    ("Kuwait City", "KW", 29.38, 47.99, 3_250_000),
    ("Manama", "BH", 26.23, 50.59, 710_000),
    ("Muscat", "OM", 23.59, 58.41, 1_590_000),
    ("Amman", "JO", 31.96, 35.95, 2_210_000),
    ("Beirut", "LB", 33.89, 35.50, 2_420_000),
    ("Baghdad", "IQ", 33.31, 44.37, 7_510_000),
    ("Tehran", "IR", 35.69, 51.39, 9_380_000),
    ("Baku", "AZ", 40.41, 49.87, 2_430_000),
    ("Tbilisi", "GE", 41.72, 44.79, 1_200_000),
    ("Yerevan", "AM", 40.18, 44.51, 1_100_000),
    // --- South / Central Asia ---
    ("Mumbai", "IN", 19.08, 72.88, 21_300_000),
    ("Delhi", "IN", 28.61, 77.21, 32_940_000),
    ("Bangalore", "IN", 12.97, 77.59, 13_610_000),
    ("Chennai", "IN", 13.08, 80.27, 11_770_000),
    ("Hyderabad", "IN", 17.39, 78.49, 10_800_000),
    ("Kolkata", "IN", 22.57, 88.36, 15_330_000),
    ("Pune", "IN", 18.52, 73.86, 7_170_000),
    ("Ahmedabad", "IN", 23.02, 72.57, 8_650_000),
    ("Karachi", "PK", 24.86, 67.01, 17_240_000),
    ("Lahore", "PK", 31.55, 74.34, 13_980_000),
    ("Islamabad", "PK", 33.68, 73.05, 1_230_000),
    ("Dhaka", "BD", 23.81, 90.41, 23_210_000),
    ("Colombo", "LK", 6.93, 79.85, 2_590_000),
    ("Kathmandu", "NP", 27.72, 85.32, 1_570_000),
    ("Almaty", "KZ", 43.24, 76.89, 2_160_000),
    ("Tashkent", "UZ", 41.30, 69.24, 2_960_000),
    // --- East / Southeast Asia ---
    ("Tokyo", "JP", 35.68, 139.69, 37_270_000),
    ("Osaka", "JP", 34.69, 135.50, 18_970_000),
    ("Nagoya", "JP", 35.18, 136.91, 9_460_000),
    ("Fukuoka", "JP", 33.59, 130.40, 5_540_000),
    ("Sapporo", "JP", 43.06, 141.35, 2_670_000),
    ("Seoul", "KR", 37.57, 126.98, 25_510_000),
    ("Busan", "KR", 35.18, 129.08, 3_400_000),
    ("Beijing", "CN", 39.90, 116.41, 21_540_000),
    ("Shanghai", "CN", 31.23, 121.47, 28_520_000),
    ("Guangzhou", "CN", 23.13, 113.26, 19_000_000),
    ("Shenzhen", "CN", 22.54, 114.06, 17_500_000),
    ("Chengdu", "CN", 30.57, 104.07, 16_040_000),
    ("Wuhan", "CN", 30.59, 114.31, 11_210_000),
    ("Hong Kong", "HK", 22.32, 114.17, 7_490_000),
    ("Taipei", "TW", 25.03, 121.57, 7_050_000),
    ("Kaohsiung", "TW", 22.63, 120.30, 2_770_000),
    ("Macau", "MO", 22.20, 113.55, 680_000),
    ("Manila", "PH", 14.60, 120.98, 14_410_000),
    ("Cebu", "PH", 10.32, 123.89, 2_960_000),
    ("Singapore", "SG", 1.35, 103.82, 5_640_000),
    ("Kuala Lumpur", "MY", 3.139, 101.69, 8_420_000),
    ("Johor Bahru", "MY", 1.49, 103.74, 1_070_000),
    ("Jakarta", "ID", -6.21, 106.85, 34_540_000),
    ("Surabaya", "ID", -7.26, 112.75, 2_880_000),
    ("Bangkok", "TH", 13.76, 100.50, 17_070_000),
    ("Hanoi", "VN", 21.03, 105.85, 8_250_000),
    ("Ho Chi Minh City", "VN", 10.82, 106.63, 9_320_000),
    ("Phnom Penh", "KH", 11.56, 104.92, 2_280_000),
    ("Yangon", "MM", 16.87, 96.20, 5_610_000),
    ("Ulaanbaatar", "MN", 47.89, 106.91, 1_640_000),
    // --- Oceania ---
    ("Sydney", "AU", -33.87, 151.21, 5_120_000),
    ("Melbourne", "AU", -37.81, 144.96, 5_080_000),
    ("Brisbane", "AU", -27.47, 153.03, 2_470_000),
    ("Perth", "AU", -31.95, 115.86, 2_090_000),
    ("Adelaide", "AU", -34.93, 138.60, 1_360_000),
    ("Canberra", "AU", -35.28, 149.13, 460_000),
    ("Auckland", "NZ", -36.85, 174.76, 1_660_000),
    ("Wellington", "NZ", -41.29, 174.78, 420_000),
    ("Christchurch", "NZ", -43.53, 172.64, 380_000),
    ("Suva", "FJ", -18.14, 178.44, 180_000),
    ("Noumea", "NC", -22.26, 166.45, 180_000),
    ("Guam", "GU", 13.44, 144.79, 170_000),
];

/// Grid cell edge in degrees for the lat/lon disk index.
const GRID_DEG: f64 = 10.0;
/// Number of latitude bands: 180° / [`GRID_DEG`].
const GRID_LAT_CELLS: usize = 18;
/// Number of longitude columns: 360° / [`GRID_DEG`].
const GRID_LON_CELLS: usize = 36;
/// Conservative inflation added to every disk radius before computing its
/// grid cover. [`Disk::contains`] accepts points up to `1e-9` km past the
/// radius; a whole kilometre of slack dominates that plus every rounding
/// error in the cover's trigonometry, and costs at most one extra cell.
const GRID_MARGIN_KM: f64 = 1.0;

/// The embedded world-city database.
///
/// Cheap to construct (borrows the static table); construct once and share.
/// Carries a deterministic lat/lon grid index so the disk queries
/// ([`most_populous_in`](Self::most_populous_in) / [`all_in`](Self::all_in))
/// visit only cells intersecting the disk instead of scanning every city.
#[derive(Debug, Clone)]
pub struct CityDb {
    cities: Vec<City>,
    /// `grid[band * GRID_LON_CELLS + col]` holds the indices of the cities
    /// whose coordinate falls in that 10°×10° cell, in ascending index
    /// order (build order). Queries re-check candidates with the exact
    /// [`Disk::contains`] predicate, so cell assignment only affects which
    /// cities are *considered*, never which are *returned*.
    grid: Vec<Vec<u16>>,
}

impl Default for CityDb {
    fn default() -> Self {
        Self::embedded()
    }
}

impl CityDb {
    /// Load the embedded database.
    pub fn embedded() -> Self {
        let cities: Vec<City> = RAW
            .iter()
            .map(|&(name, country, lat, lon, population)| City {
                name,
                country,
                coord: Coord::new(lat, lon),
                population,
            })
            .collect();
        let mut grid = vec![Vec::new(); GRID_LAT_CELLS * GRID_LON_CELLS];
        for (i, c) in cities.iter().enumerate() {
            let band = Self::lat_band(c.coord.lat);
            let col = Self::lon_col(c.coord.lon);
            grid[band * GRID_LON_CELLS + col].push(i as u16);
        }
        CityDb { cities, grid }
    }

    /// Latitude band of `lat` (clamped into `0..GRID_LAT_CELLS`).
    fn lat_band(lat: f64) -> usize {
        // f64→usize saturates (negatives → 0), so out-of-range inputs
        // clamp to the polar bands instead of wrapping.
        (((lat + 90.0) / GRID_DEG).floor() as usize).min(GRID_LAT_CELLS - 1)
    }

    /// Longitude column of `lon` (clamped into `0..GRID_LON_CELLS`).
    fn lon_col(lon: f64) -> usize {
        (((lon + 180.0) / GRID_DEG).floor() as usize).min(GRID_LON_CELLS - 1)
    }

    /// Wrap a longitude into `[-180, 180)`.
    fn wrap_lon(lon: f64) -> f64 {
        let mut l = (lon + 180.0) % 360.0;
        if l < 0.0 {
            l += 360.0;
        }
        l - 180.0
    }

    /// Visit the index of every city in a cell intersecting a conservative
    /// cover of `disk`. May visit cities outside the disk (callers re-check
    /// with [`Disk::contains`]); never skips a city inside it, because the
    /// cover over-approximates the disk:
    ///
    /// - latitude: the difference in latitude between two points is at most
    ///   their angular distance, so the band `center.lat ± θ` is exact;
    /// - longitude: for a disk that stays clear of both poles, the maximum
    ///   longitude offset of a point at angular distance `θ` from a center
    ///   at latitude `φ` is `asin(sin θ / cos φ)` (the bounding meridians
    ///   are tangent to the disk); if the disk reaches either pole every
    ///   longitude is in range and all columns are visited;
    /// - `θ` is inflated by [`GRID_MARGIN_KM`] so float rounding in the
    ///   trigonometry above can never shave off a boundary cell.
    fn grid_candidates(&self, disk: &Disk, mut visit: impl FnMut(usize)) {
        let theta = (disk.radius_km + GRID_MARGIN_KM) / EARTH_RADIUS_KM;
        let r_deg = theta.to_degrees();
        let lat_lo = disk.center.lat - r_deg;
        let lat_hi = disk.center.lat + r_deg;
        let band_lo = Self::lat_band(lat_lo);
        let band_hi = Self::lat_band(lat_hi);

        // Longitude half-width of the cover, in degrees; `None` = all.
        let half_lon = if lat_lo <= -90.0 || lat_hi >= 90.0 || theta >= std::f64::consts::FRAC_PI_2
        {
            None
        } else {
            let s = theta.sin() / disk.center.lat.to_radians().cos();
            if s >= 1.0 {
                None
            } else {
                Some(s.asin().to_degrees())
            }
        };

        let (start_col, n_cols) = match half_lon {
            None => (0, GRID_LON_CELLS),
            Some(hw) if 2.0 * hw >= 360.0 - GRID_DEG => (0, GRID_LON_CELLS),
            Some(hw) => {
                let start = Self::lon_col(Self::wrap_lon(disk.center.lon - hw));
                // A span of width `2*hw` degrees intersects at most
                // floor(2*hw / GRID_DEG) + 2 columns; the extra column is
                // harmless (candidates are re-checked), missing one is not.
                let n = ((2.0 * hw / GRID_DEG).floor() as usize + 2).min(GRID_LON_CELLS);
                (start, n)
            }
        };

        for band in band_lo..=band_hi {
            for k in 0..n_cols {
                let col = (start_col + k) % GRID_LON_CELLS;
                for &i in &self.grid[band * GRID_LON_CELLS + col] {
                    visit(usize::from(i));
                }
            }
        }
    }

    /// Number of cities in the database.
    pub fn len(&self) -> usize {
        self.cities.len()
    }

    /// Whether the database is empty (never, for the embedded set).
    pub fn is_empty(&self) -> bool {
        self.cities.is_empty()
    }

    /// Look up a city by id.
    pub fn get(&self, id: CityId) -> &City {
        &self.cities[id.0 as usize]
    }

    /// Iterate over `(CityId, &City)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (CityId, &City)> {
        self.cities
            .iter()
            .enumerate()
            .map(|(i, c)| (CityId(i as u16), c))
    }

    /// Find a city by exact name. Returns `None` for unknown names.
    pub fn by_name(&self, name: &str) -> Option<CityId> {
        self.cities
            .iter()
            .position(|c| c.name == name)
            .map(|i| CityId(i as u16))
    }

    /// The city nearest to `coord` by great-circle distance.
    pub fn nearest(&self, coord: &Coord) -> CityId {
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (i, c) in self.cities.iter().enumerate() {
            let d = c.coord.gcd_km(coord);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        CityId(best as u16)
    }

    /// iGreedy's geolocation step: the most populous city inside `disk`,
    /// or `None` if the disk contains no database city.
    ///
    /// Grid-indexed; returns exactly what
    /// [`most_populous_in_linear`](Self::most_populous_in_linear) returns
    /// (pinned by the `grid_equivalence` test suite). The linear scan's
    /// `max_by_key` resolves population ties to the *highest* index, which
    /// equals the lexicographic maximum on `(population, index)` — a
    /// visit-order-independent criterion, so cell iteration order is free.
    pub fn most_populous_in(&self, disk: &Disk) -> Option<CityId> {
        let mut best: Option<(u64, usize)> = None;
        self.grid_candidates(disk, |i| {
            let c = &self.cities[i];
            if disk.contains(&c.coord) && best.is_none_or(|b| (c.population, i) > b) {
                best = Some((c.population, i));
            }
        });
        best.map(|(_, i)| CityId(i as u16))
    }

    /// All cities inside `disk`, ordered by descending population.
    ///
    /// Grid-indexed; returns exactly what
    /// [`all_in_linear`](Self::all_in_linear) returns — the sort key
    /// `(population desc, index asc)` is a total order (indices are
    /// unique), so the candidate visit order cannot leak into the result.
    pub fn all_in(&self, disk: &Disk) -> Vec<CityId> {
        let mut ids: Vec<(usize, u64)> = Vec::new();
        self.grid_candidates(disk, |i| {
            let c = &self.cities[i];
            if disk.contains(&c.coord) {
                ids.push((i, c.population));
            }
        });
        ids.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ids.into_iter().map(|(i, _)| CityId(i as u16)).collect()
    }

    /// Linear-scan reference for [`most_populous_in`](Self::most_populous_in):
    /// the pre-index implementation, kept public so equivalence tests can
    /// pin the grid path byte-identical to it.
    pub fn most_populous_in_linear(&self, disk: &Disk) -> Option<CityId> {
        self.cities
            .iter()
            .enumerate()
            .filter(|(_, c)| disk.contains(&c.coord))
            .max_by_key(|(_, c)| c.population)
            .map(|(i, _)| CityId(i as u16))
    }

    /// Linear-scan reference for [`all_in`](Self::all_in); see
    /// [`most_populous_in_linear`](Self::most_populous_in_linear).
    pub fn all_in_linear(&self, disk: &Disk) -> Vec<CityId> {
        let mut ids: Vec<(usize, u64)> = self
            .cities
            .iter()
            .enumerate()
            .filter(|(_, c)| disk.contains(&c.coord))
            .map(|(i, c)| (i, c.population))
            .collect();
        ids.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ids.into_iter().map(|(i, _)| CityId(i as u16)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn database_has_expected_size() {
        let db = CityDb::embedded();
        assert!(db.len() >= 220, "only {} cities", db.len());
    }

    #[test]
    fn names_are_unique() {
        let db = CityDb::embedded();
        let mut names: Vec<_> = db.iter().map(|(_, c)| c.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate city names");
    }

    #[test]
    fn coordinates_are_in_range() {
        let db = CityDb::embedded();
        for (_, c) in db.iter() {
            assert!((-90.0..=90.0).contains(&c.coord.lat), "{}", c.name);
            assert!((-180.0..=180.0).contains(&c.coord.lon), "{}", c.name);
            assert!(c.population > 0, "{}", c.name);
        }
    }

    #[test]
    fn vultr_sites_are_all_present() {
        // The 32 metros of the paper's production deployment must resolve.
        let db = CityDb::embedded();
        for name in [
            "Amsterdam",
            "Atlanta",
            "Bangalore",
            "Chicago",
            "Dallas",
            "Delhi",
            "Frankfurt",
            "Honolulu",
            "Johannesburg",
            "London",
            "Los Angeles",
            "Madrid",
            "Manchester",
            "Melbourne",
            "Mexico City",
            "Miami",
            "Mumbai",
            "Newark",
            "Osaka",
            "Paris",
            "Sao Paulo",
            "Santiago",
            "Seattle",
            "Seoul",
            "San Jose",
            "Singapore",
            "Stockholm",
            "Sydney",
            "Tel Aviv",
            "Tokyo",
            "Toronto",
            "Warsaw",
        ] {
            assert!(db.by_name(name).is_some(), "missing Vultr metro {name}");
        }
    }

    #[test]
    fn nearest_returns_same_city_for_city_coord() {
        let db = CityDb::embedded();
        let ams = db.by_name("Amsterdam").unwrap();
        assert_eq!(db.nearest(&db.get(ams).coord), ams);
    }

    #[test]
    fn most_populous_in_small_disk_around_tokyo() {
        let db = CityDb::embedded();
        let tokyo = db.by_name("Tokyo").unwrap();
        let disk = Disk::new(db.get(tokyo).coord, 100.0);
        assert_eq!(db.most_populous_in(&disk), Some(tokyo));
    }

    #[test]
    fn most_populous_in_huge_disk_is_global_max() {
        let db = CityDb::embedded();
        let disk = Disk::new(Coord::new(0.0, 0.0), 30_000.0);
        let id = db.most_populous_in(&disk).unwrap();
        let max_pop = db.iter().map(|(_, c)| c.population).max().unwrap();
        assert_eq!(db.get(id).population, max_pop);
    }

    #[test]
    fn empty_disk_has_no_city() {
        let db = CityDb::embedded();
        // Middle of the South Pacific, 10 km radius.
        let disk = Disk::new(Coord::new(-45.0, -130.0), 10.0);
        assert_eq!(db.most_populous_in(&disk), None);
        assert!(db.all_in(&disk).is_empty());
    }

    #[test]
    fn all_in_is_sorted_by_population() {
        let db = CityDb::embedded();
        let disk = Disk::new(Coord::new(48.0, 8.0), 1_500.0);
        let ids = db.all_in(&disk);
        assert!(ids.len() > 5);
        for w in ids.windows(2) {
            assert!(db.get(w[0]).population >= db.get(w[1]).population);
        }
    }
}
